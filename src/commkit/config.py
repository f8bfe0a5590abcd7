"""Run configuration: detection parameters and one run's settings.

These records live apart from the layers they configure, so a process can
build its configuration without importing :mod:`commkit.detect`: only the
``detect`` stage loads the detection module.  Every value is checked when
it is built, ``_replace`` included.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")


class _DetectFields(NamedTuple):
    alpha: float = 0.15
    epsilon: float = 1e-4
    min_size: int = 5
    max_size: int = 200


class DetectParams(_DetectFields):
    """Detection parameters, checked whenever a value is built (``_replace`` too).

    ``alpha`` is the teleport probability of the lazy walk whose
    personalized PageRank the push approximates.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_alpha(self.alpha)
        _check_epsilon(self.epsilon)
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ConfigError(
                f"need 1 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _RunFields(NamedTuple):
    graph_path: str
    communities_path: str | None = None
    metadata_path: str | None = None
    k: int = 5
    p: float = 0.8
    detect: DetectParams = DetectParams()
    out_dir: str = "out"
    fmt: str = "csv"


class RunConfig(_RunFields):
    """One run's settings, checked whenever a value is built (``_replace`` too)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
