"""Exception hierarchy for the GreenFPGA reproduction."""

from __future__ import annotations


class GreenFpgaError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(GreenFpgaError, ValueError):
    """A model input is out of its physically meaningful range."""


class ConfigError(GreenFpgaError, ValueError):
    """A configuration file or parameter set could not be interpreted."""


class StoreCorruptError(ParameterError):
    """A persisted result-store file is unusable: truncated, corrupted,
    or written in an incompatible format version.

    Subclasses :class:`ParameterError` for backward compatibility with
    callers that treated a format mismatch as a parameter problem;
    engines catch this specifically to log-and-start-cold instead of
    crashing (a stale cache is a performance artefact, never ground
    truth).
    """


class ContainerError(GreenFpgaError, ValueError):
    """Bytes that do not decode as an array container
    (:mod:`repro.engine.container`): a wrong prefix, a digest mismatch,
    a malformed array table or trailing bytes.  Each use turns it into
    its own error.
    """


class CheckpointMismatchError(ParameterError):
    """A checkpoint file belongs to a *different* job than the resume.

    Raised when the persisted job identity (source digest, seed, chunk
    size, reduction schema) disagrees with the run asking to resume.
    Unlike :class:`StoreCorruptError` — where the engine logs and
    starts cold, because a stale cache is only a performance artefact —
    this is raised to the caller: silently restarting a *different*
    job from scratch (or worse, merging foreign partials) would return
    a wrong answer with no warning.
    """


class ServeError(GreenFpgaError, RuntimeError):
    """Base class for network-serving failures (protocol, workers)."""


class UnknownEntityError(GreenFpgaError, KeyError):
    """A registry lookup (node, grid region, device, material) failed."""

    def __init__(self, kind: str, name: str, known: list[str]):
        self.kind = kind
        self.name = name
        self.known = sorted(known)
        super().__init__(
            f"unknown {kind} {name!r}; known {kind}s: {', '.join(self.known)}"
        )


class CapacityError(GreenFpgaError, ValueError):
    """An application cannot be mapped onto the given device."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ParameterError` unless ``condition`` holds."""
    if not condition:
        raise ParameterError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    require(value > 0.0, f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    require(value >= 0.0, f"{name} must be >= 0, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value!r}")
    return value
