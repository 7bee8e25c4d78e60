"""Exception types shared across the package, and the one type check of
plan and spec fields and of integer arguments. Every refusal the package
raises is a `SketchpartsError`, which the CLI prints as one `error:` line,
exiting 1."""

import math
import numbers


class SketchpartsError(ValueError):
    """Base of every refusal the package raises."""


class ContractViolation(SketchpartsError):
    """An operation was called with arguments that break its preconditions."""


class ConfigError(SketchpartsError):
    """A configuration value is inconsistent or refers to something unknown."""


class TaxonomyParseError(SketchpartsError):
    """Taxonomy text is malformed; carries the line number and message, and names its file."""

    def __init__(self, line_no, message, path=None):
        super().__init__(f"{'' if path is None else f'{path} '}line {line_no}: {message}")
        self.line_no, self.message = line_no, message


class CheckpointError(SketchpartsError):
    """A checkpoint file is unreadable; carries the byte offset of the fault
    and the message, and names its file."""

    def __init__(self, offset, message, path=None):
        super().__init__(f"{'' if path is None else f'{path} '}at byte {offset}: {message}")
        self.offset, self.message = offset, message


class TaxonomyMismatch(CheckpointError):
    """A checkpoint was written for another taxonomy than the one it is read with."""


def check_count(name, value):
    """Refuse `value`, called `name`, with a ConfigError unless it is an
    integer >= 0 (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")


def check_fields(owner, ints=(), reals=(), names=()):
    """Refuse a field of `owner` of the wrong type with a ConfigError naming
    it: `ints` must be integers >= 0 (check_count), `reals` finite numbers
    (a bool is neither), and `names` lists of strings, stored on `owner` as
    tuples."""
    for name in ints:
        check_count(name, getattr(owner, name))
    for name in reals:
        value = getattr(owner, name)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not real or not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{name} must be a list of names, got {value!r}")
        object.__setattr__(owner, name, tuple(value))
