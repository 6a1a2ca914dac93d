"""Test fakes: a stage that wraps a function and a site that serves one.

The program composes its pipeline from concrete stages and serves
concrete sites; these adapters let a test plug a plain callable into
either seam.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.pipeline.context import WeekContext
from repro.pipeline.stage import Stage
from repro.web.http import HttpRequest, HttpResponse


class FunctionStage(Stage):
    """Wrap a plain callable as a stage.

    >>> stage = FunctionStage("double", lambda ctx: ctx.put("x", 2))
    """

    def __init__(
        self,
        name: str,
        tick: Callable[[WeekContext], Optional[int]],
        requires: Tuple[str, ...] = (),
        provides: Tuple[str, ...] = (),
        setup: Optional[Callable[[WeekContext], None]] = None,
        finish: Optional[Callable[[WeekContext], None]] = None,
    ):
        self.name = name
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self._tick = tick
        self._setup = setup
        self._finish = finish

    def setup(self, ctx: WeekContext) -> None:
        if self._setup is not None:
            self._setup(ctx)

    def tick(self, ctx: WeekContext) -> Optional[int]:
        return self._tick(ctx)

    def finish(self, ctx: WeekContext) -> None:
        if self._finish is not None:
            self._finish(ctx)


class CallableSite:
    """Adapter turning a plain function into a site."""

    def __init__(self, handler: Callable[[HttpRequest], HttpResponse]):
        self._handler = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self._handler(request)
