"""Shared edge validation of user-facing analysis parameters.

The CLI and the HTTP server both accept ``support`` / ``epsilon`` from
untrusted input; without early checks a ``--support 0`` (or negative,
or ``> 1``) sails into the miners and dies with an opaque numpy error
several layers deep. These helpers reject bad values at the boundary
with a clear message — :class:`~repro.exceptions.ReproError` maps to a
usage error in the CLI and a 400 response in the server.
"""

from __future__ import annotations

import math

from repro.exceptions import ReproError

__all__ = [
    "validate_acked",
    "validate_algorithm",
    "validate_alert_threshold",
    "validate_batch_size",
    "validate_bins",
    "validate_confidence",
    "validate_content_length",
    "validate_deadline",
    "validate_divergence_threshold",
    "validate_epsilon",
    "validate_limit",
    "validate_min_t",
    "validate_models",
    "validate_offset",
    "validate_pattern",
    "validate_rank_k",
    "validate_sample",
    "validate_since",
    "validate_step",
    "validate_support",
    "validate_top",
    "validate_utf8",
    "validate_weight_model",
    "validate_window",
    "validate_workers",
]


def validate_support(value: float | str) -> float:
    """Coerce and check a support threshold: must satisfy ``0 < s <= 1``."""
    try:
        support = float(value)
    except (TypeError, ValueError):
        raise ReproError(f"support must be a number, got {value!r}") from None
    if math.isnan(support) or not 0.0 < support <= 1.0:
        raise ReproError(
            f"support must be in (0, 1], got {value!r} "
            "(it is the minimum fraction of rows a pattern must cover)"
        )
    return support


def validate_epsilon(value: float | str | None) -> float | None:
    """Coerce and check an ε-pruning threshold: ``epsilon >= 0``."""
    if value is None:
        return None
    try:
        epsilon = float(value)
    except (TypeError, ValueError):
        raise ReproError(f"epsilon must be a number, got {value!r}") from None
    if math.isnan(epsilon) or epsilon < 0.0:
        raise ReproError(f"epsilon must be >= 0, got {value!r}")
    return epsilon


def validate_deadline(value: float | str | None) -> float | None:
    """Coerce and check a deadline budget: positive, finite seconds.

    ``None`` means no deadline (run to completion).
    """
    if value is None:
        return None
    try:
        deadline = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"deadline must be a number of seconds, got {value!r}"
        ) from None
    if math.isnan(deadline) or math.isinf(deadline) or deadline <= 0.0:
        raise ReproError(
            f"deadline must be a positive finite number of seconds, got {value!r}"
        )
    return deadline


def _validate_positive_int(value: int | str, name: str, minimum: int) -> int:
    """Shared coercion for streaming row-count knobs."""
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise ReproError(f"{name} must be an integer, got {value!r}") from None
    if coerced < minimum:
        raise ReproError(f"{name} must be >= {minimum}, got {value!r}")
    return coerced


def validate_window(value: int | str) -> int:
    """Coerce and check a streaming window size (rows): ``window >= 2``.

    A 1-row window cannot support a divergence table, and mining it
    would raise deep inside the backends.
    """
    return _validate_positive_int(value, "window", 2)


def validate_step(value: int | str | None) -> int | None:
    """Coerce and check a window step (rows): ``step >= 1``.

    ``None`` means tumbling (step = window). Steps larger than the
    window are allowed — they sample the stream with gaps.
    """
    if value is None:
        return None
    return _validate_positive_int(value, "step", 1)


def validate_batch_size(value: int | str) -> int:
    """Coerce and check an ingestion batch size: ``batch_size >= 1``."""
    return _validate_positive_int(value, "batch_size", 1)


def validate_offset(value: int | str | None) -> int:
    """Coerce and check a pagination offset: ``offset >= 0``.

    ``None`` (parameter absent) reads as 0 — start of the collection.
    Float strings like ``"1.5"`` are rejected rather than truncated.
    """
    if value is None:
        return 0
    try:
        offset = int(str(value))
    except (TypeError, ValueError):
        raise ReproError(
            f"offset must be an integer >= 0, got {value!r}"
        ) from None
    if offset < 0:
        raise ReproError(f"offset must be >= 0, got {value!r}")
    return offset


def validate_limit(value: int | str | None) -> int | None:
    """Coerce and check a pagination limit: ``limit >= 1`` or ``None``.

    ``None`` (parameter absent) means unbounded — the endpoints'
    pre-pagination behavior. A zero or negative limit is rejected: an
    empty page is never what a client meant to ask for.
    """
    if value is None:
        return None
    try:
        limit = int(str(value))
    except (TypeError, ValueError):
        raise ReproError(
            f"limit must be an integer >= 1, got {value!r}"
        ) from None
    if limit < 1:
        raise ReproError(f"limit must be >= 1, got {value!r}")
    return limit


def validate_alert_threshold(value: float | str) -> float:
    """Coerce and check a drift alert threshold: finite, ``>= 0``.

    Used for both the divergence-delta and the Welch-t gates; zero
    disables the gate (every aligned itemset passes it).
    """
    try:
        threshold = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"alert threshold must be a number, got {value!r}"
        ) from None
    if math.isnan(threshold) or math.isinf(threshold) or threshold < 0.0:
        raise ReproError(
            f"alert threshold must be finite and >= 0, got {value!r}"
        )
    return threshold


def validate_workers(value: int | str) -> int:
    """Coerce and check a mining worker count: ``workers >= 0``.

    ``0`` means auto (the sharded engine picks a count, staying serial
    for small datasets); ``1`` is explicitly serial; ``>= 2`` shards the
    rows across that many worker processes. Float strings like ``"2.5"``
    are rejected rather than truncated.
    """
    try:
        workers = int(str(value))
    except (TypeError, ValueError):
        raise ReproError(
            f"workers must be an integer >= 0 (0 = auto), got {value!r}"
        ) from None
    if workers < 0:
        raise ReproError(
            f"workers must be >= 0 (0 = auto), got {value!r}"
        )
    return workers


def validate_sample(value: float | int | str | None) -> float | int | str | None:
    """Coerce and check a ``sample`` spec for approximate exploration.

    Accepted forms: ``None`` (exact), the literal ``"auto"`` (first-
    round size picked by :func:`repro.approx.auto_sample_rows`), a
    fraction in ``(0, 1]`` of the rows, or an integral row count
    ``> 1``. Non-integral counts like ``1.5`` are rejected rather than
    truncated; ``1`` reads as the fraction 1.0 (the full dataset, i.e.
    the exact path).
    """
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lower() == "auto":
        return "auto"
    try:
        sample = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"sample must be 'auto', a fraction in (0, 1] or a row count, "
            f"got {value!r}"
        ) from None
    if math.isnan(sample) or math.isinf(sample) or sample <= 0.0:
        raise ReproError(
            f"sample must be positive and finite, got {value!r}"
        )
    if sample <= 1.0:
        return sample
    if sample != int(sample):
        raise ReproError(
            f"sample > 1 must be an integral row count, got {value!r}"
        )
    return int(sample)


def validate_confidence(value: float | str) -> float:
    """Coerce and check a credible-interval mass: ``0 < c < 1``."""
    try:
        confidence = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"confidence must be a number, got {value!r}"
        ) from None
    if math.isnan(confidence) or not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {value!r}"
        )
    return confidence


def validate_models(value: str | list[str]) -> list[str]:
    """Coerce and check a model-comparison spec list.

    Accepts a comma-separated string (the CLI/HTTP form) or a list of
    specs. Each spec is a prediction column name or ``classifier:<name>``
    (resolved later by :func:`repro.core.compare.resolve_models`); here
    only the shape is checked: at least two distinct non-empty specs.
    """
    if isinstance(value, str):
        specs = [part.strip() for part in value.split(",")]
    else:
        try:
            specs = [str(part).strip() for part in value]
        except TypeError:
            raise ReproError(
                f"models must be a comma-separated list, got {value!r}"
            ) from None
    specs = [s for s in specs if s]
    if len(specs) < 2:
        raise ReproError(
            f"models needs at least two comma-separated specs "
            f"(prediction columns or classifier:<name>), got {value!r}"
        )
    if len(set(specs)) != len(specs):
        raise ReproError(f"models must be distinct, got {value!r}")
    return specs


def validate_min_t(value: float | str) -> float:
    """Coerce and check a |t| significance gate: finite, ``>= 0``.

    Zero disables the gate (every measurable shift passes).
    """
    try:
        min_t = float(value)
    except (TypeError, ValueError):
        raise ReproError(f"min-t must be a number, got {value!r}") from None
    if math.isnan(min_t) or math.isinf(min_t) or min_t < 0.0:
        raise ReproError(f"min-t must be finite and >= 0, got {value!r}")
    return min_t


def validate_top(value: int | str, minimum: int = 1) -> int:
    """Coerce and check a top-k count: ``top >= minimum``."""
    try:
        top = int(value)
    except (TypeError, ValueError):
        raise ReproError(f"top must be an integer, got {value!r}") from None
    if top < minimum:
        raise ReproError(f"top must be >= {minimum}, got {value!r}")
    return top


def validate_algorithm(value: str) -> str:
    """Check a mining backend name: one of
    :data:`repro.fpm.miner.ALGORITHMS`."""
    from repro.fpm.miner import ALGORITHMS

    if value not in ALGORITHMS:
        raise ReproError(
            f"algorithm must be one of {', '.join(ALGORITHMS)}, got {value!r}"
        )
    return value


def validate_weight_model(value: str) -> str:
    """Coerce and check a rank weight model name.

    One of :data:`repro.rank.weights.WEIGHT_MODELS` — ``exposure``,
    ``topk``, ``reciprocal_rank`` or ``score``.
    """
    from repro.rank.weights import WEIGHT_MODELS

    model = str(value).strip().lower()
    if model not in WEIGHT_MODELS:
        raise ReproError(
            f"weight model must be one of {', '.join(WEIGHT_MODELS)}, "
            f"got {value!r}"
        )
    return model


def validate_rank_k(value: int | str | None) -> int | None:
    """Coerce and check a ``topk`` weight-model list size: ``k >= 1``.

    ``None`` means not provided (only valid for the other weight
    models). Float strings like ``"10.5"`` are rejected rather than
    truncated.
    """
    if value is None:
        return None
    try:
        k = int(str(value))
    except (TypeError, ValueError):
        raise ReproError(
            f"rank k must be an integer >= 1, got {value!r}"
        ) from None
    if k < 1:
        raise ReproError(f"rank k must be >= 1, got {value!r}")
    return k


def validate_bins(value: int | str) -> int:
    """Coerce and check a quantile bin count for continuous columns:
    ``bins >= 2`` (one bin would make the column a constant)."""
    return _validate_positive_int(value, "bins", 2)


def validate_since(value: int | str | None, name: str = "since") -> int | None:
    """Coerce and check a resume point: an integer ``>= 0``.

    Used for the alert log's ``since`` (a sequence number) and the
    pattern ledger's ``since_window`` (a window index); ``name`` labels
    the error. ``None`` means the parameter is absent.
    """
    if value is None:
        return None
    return _validate_positive_int(value, name, 0)


def validate_divergence_threshold(value: float | str) -> float:
    """Coerce and check a divergence threshold: any finite number.

    Divergence is signed, so negative thresholds are meaningful.
    """
    try:
        threshold = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"threshold must be a number, got {value!r}"
        ) from None
    if not math.isfinite(threshold):
        raise ReproError(f"threshold must be finite, got {value!r}")
    return threshold


def validate_acked(value: str | None) -> bool | None:
    """Coerce an acknowledgement filter: ``true``/``1`` or ``false``/``0``.

    ``None`` means the parameter is absent (no filter).
    """
    if value is None:
        return None
    lowered = str(value).strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ReproError(f"acked must be true or false, got {value!r}")


def validate_pattern(value: str | None):
    """Parse a required pattern such as ``race=Caucasian, sex=Male``.

    Returns the :class:`~repro.core.items.Itemset`; a missing or blank
    value and an item without ``=`` are rejected.
    """
    from repro.core.items import Itemset

    if value is None or not value.strip():
        raise ReproError(
            "pattern parameter is required, e.g. pattern=sex=Male"
        )
    return Itemset.parse(value)


def validate_labels(value: object, name: str) -> list[bool]:
    """Check a JSON list of binary labels: ``true``/``false`` or 0/1.

    Anything else — strings such as ``"false"``, other numbers, objects,
    ``null`` — is rejected rather than cast, since ``bool("false")`` and
    ``bool({"a": 1})`` are both true.
    """
    if not isinstance(value, list):
        raise ReproError(f"ingest body needs a '{name}' list")
    for i, label in enumerate(value):
        if not (isinstance(label, bool) or (type(label) is int and label in (0, 1))):
            raise ReproError(
                f"{name}[{i}] must be true, false, 0 or 1, got {label!r}"
            )
    return [bool(label) for label in value]


def validate_content_length(value: str | None) -> int:
    """Coerce and check a request's ``Content-Length``: a non-empty body.

    A missing header, a non-integer or negative length and an empty
    body are rejected before any byte of the body is read.
    """
    if value is None:
        raise ReproError("request needs a Content-Length header")
    length = _validate_positive_int(value, "Content-Length", 0)
    if length == 0:
        raise ReproError("request body is empty")
    return length


def validate_utf8(body: bytes) -> str:
    """Decode a request body, which must be UTF-8 text."""
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError(f"request body is not UTF-8: {exc}") from None
