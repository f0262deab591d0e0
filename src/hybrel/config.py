"""Run settings, the key=value file reader, config parsing and the thread cap."""

import math
import operator
import os
from dataclasses import dataclass, fields

from .errors import InvalidParameterError

__all__ = ["RunSettings", "read_key_values", "load_config", "thread_cap"]


@dataclass(frozen=True)
class RunSettings:
    """Defaults shared by the CLI and the benchmark runner; the fields are
    the config keys, each typed as its default."""

    alpha_levels: int = 21
    quad_nodes: int = 64
    epsilon: float = 1e-6
    fd_step: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha_levels", "quad_nodes", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.alpha_levels < 1:
            raise InvalidParameterError("alpha_levels must be >= 1")
        if self.quad_nodes < 32:
            raise InvalidParameterError("quad_nodes must be >= 32")
        for name in ("epsilon", "fd_step"):
            if not 0.0 < getattr(self, name) < math.inf:  # also refuses nan
                raise InvalidParameterError(f"{name} must be finite and positive")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")


def as_count(value, name):
    """value as an int when it is an integer (Python or numpy), else
    InvalidParameterError naming it.  operator.index takes True as 1, so
    a bool is refused first (numpy's bool has no index)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def read_key_values(path):
    """Yield (lineno, key, value) for each key=value line of a UTF-8 file.

    '#' starts a comment and blank lines are skipped; any other line
    without '=' is a usage error naming path:lineno, and so is a key seen
    before, except a problem file's repeatable random and uncertain.
    """
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key in seen:
                raise InvalidParameterError(f"{path}:{lineno}: duplicate key {key!r}")
            if key not in ("random", "uncertain"):
                seen.add(key)
            yield lineno, key, value


def load_config(path):
    """Parse a flat key=value config file (UTF-8, '#' comments).

    Returns a dict of typed overrides; unknown keys are rejected so typos
    surface as usage errors instead of silently keeping defaults.
    """
    types = {field.name: type(field.default) for field in fields(RunSettings)}
    overrides = {}
    for lineno, key, value in read_key_values(path):
        if key not in types:
            raise InvalidParameterError(
                f"{path}:{lineno}: unknown config key {key!r}"
            )
        try:
            overrides[key] = types[key](value)
        except ValueError as exc:
            raise InvalidParameterError(
                f"{path}:{lineno}: bad value for {key}: {value!r}"
            ) from exc
    return overrides


def thread_cap(default=1):
    """Worker-parallelism cap from the HRA_THREADS environment variable."""
    raw = os.environ.get("HRA_THREADS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"HRA_THREADS must be an integer, got {raw!r}") from exc
    return max(1, value)
