"""Canonical-JSON codecs for sweep session payloads.

The wire carries no pickle; every session payload has an explicit,
versioned encoding:

* **init context** (:func:`encode_context` / :func:`decode_context`):
  one canonical-JSON document carrying the instance in its
  :func:`repro.io.instance_to_dict` form, the coordinator-computed
  :func:`repro.io.instance_fingerprint` (so worker-side cache keys are
  equal to the coordinator's by construction, not by re-derivation),
  and the config/options dataclasses as plain field dicts;
* **task chunks** (:func:`encode_tasks` / :func:`decode_tasks`): one
  canonical-JSON document ``[CODEC_VERSION, [record, ...]]`` with one
  ``[group, factory, kwargs, scenario_seed, run_seed]`` record per
  :class:`repro.eval.parallel.ScenarioTask`.  A seed is ``null`` or
  the eight :func:`repro.utils.rng.generator_spec` fields (PCG64 state
  plus :class:`numpy.random.SeedSequence` coordinates) — bit-exact for
  both draw and spawn behaviour.  Decode validates every field and
  returns seeds as lazy :class:`repro.utils.rng.SeedSpec` values: every
  consumer coerces through :func:`repro.utils.rng.as_generator`, so the
  ~15µs-per-seed numpy reconstruction is deferred into the pool
  children at execution time instead of serialising chunk decode;
* **chunk results** use the engine's packed float64 transport
  (:func:`repro.eval.parallel._pack_error_dicts`); the descriptor rides
  in the JSON frame header.

Error contract: :class:`CodecError` means "this payload cannot be
carried losslessly by the codec" — a non-JSON-native or over-deep
factory kwarg, an exotic node id, a non-PCG64 or out-of-range seed.
Encode applies the decoder's checks, and the coordinator encodes a
sweep's whole payload before contacting any worker, so such a sweep
fails up front; it is never acceptable to coerce and ship, since a
lossy wire could silently break the bit-identity guarantee between
serial and remote execution.  On decode it means a corrupt or
version-skewed payload: a malformed document never reaches the engine,
where it would fail later as a ``TypeError`` inside a pool child.

The codec is versioned independently of the protocol handshake: every
encoded payload leads with :data:`CODEC_VERSION`.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.eval.dist.protocol import ProtocolError
from repro.eval.parallel import ScenarioTask
from repro.io import instance_fingerprint, instance_from_dict, instance_to_dict
from repro.simulate.experiment import ExperimentConfig
from repro.topogen.instance import TomographyInstance
from repro.utils.rng import SeedSpec, generator_spec

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "encode_context",
    "decode_context",
    "encode_tasks",
    "decode_tasks",
]

#: Version tag leading every encoded payload (context and chunk alike).
CODEC_VERSION = 1


class CodecError(ProtocolError):
    """The payload cannot be carried losslessly by the codec.

    On the encoding side the sweep cannot run remotely as given; on the
    decoding side it means a corrupt or version-skewed payload and
    aborts the session (or fails the chunk).
    """


# ----------------------------------------------------------------------
# JSON exactness
# ----------------------------------------------------------------------
#: Reserved object key marking a tuple in the wire form.  JSON has no
#: tuple type and a silent tuple→list rewrite would change what the
#: scenario factories receive, so tuples are tagged explicitly and
#: restored on decode; a payload that uses the tag as a real key is
#: rejected rather than mis-decoded.
_TUPLE_TAG = "__tuple__"

#: Deepest container nesting (lists, tuples, dicts) a task's kwargs may
#: have, the kwargs object itself being the first level.  Scenario
#: kwargs are a few levels deep; the bound makes an over-deep value a
#: :class:`CodecError` at the same depth on encode and decode and on
#: every interpreter, instead of wherever its recursion limit and frame
#: layout happen to run out.
_MAX_DEPTH = 32


def _to_wire_value(value, where: str, depth: int = 0):
    """Convert ``value`` to a JSON document that decodes back *exactly*.

    JSON-native scalars pass through; tuples become tagged objects
    (:data:`_TUPLE_TAG`) so :func:`_from_wire_value` restores their
    type; anything else — sets, numpy values, arbitrary objects, or
    dicts with non-string keys, all of which JSON would drop or rewrite
    — raises :class:`CodecError`, as does nesting past
    :data:`_MAX_DEPTH`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth == _MAX_DEPTH:
        raise CodecError(f"{where} nests deeper than {_MAX_DEPTH} levels")
    if isinstance(value, tuple):
        return {
            _TUPLE_TAG: [
                _to_wire_value(item, f"{where}[{index}]", depth + 1)
                for index, item in enumerate(value)
            ]
        }
    if isinstance(value, list):
        return [
            _to_wire_value(item, f"{where}[{index}]", depth + 1)
            for index, item in enumerate(value)
        ]
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            raise CodecError(
                f"{where} uses the reserved key {_TUPLE_TAG!r}"
            )
        converted = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"{where} has a non-string key {key!r}; JSON would "
                    "rewrite it and break the exact round-trip"
                )
            converted[key] = _to_wire_value(
                item, f"{where}[{key!r}]", depth + 1
            )
        return converted
    raise CodecError(
        f"{where} contains a {type(value).__name__}, which does not "
        "round-trip exactly through JSON"
    )


def _from_wire_value(value, depth: int = 0):
    """Inverse of :func:`_to_wire_value`, with the same depth bound."""
    if not isinstance(value, (dict, list)):
        return value
    if depth == _MAX_DEPTH:
        raise CodecError(f"wire value nests deeper than {_MAX_DEPTH} levels")
    if isinstance(value, list):
        return [_from_wire_value(item, depth + 1) for item in value]
    if _TUPLE_TAG in value:
        items = value[_TUPLE_TAG]
        if len(value) != 1 or type(items) is not list:
            # _to_wire_value never emits this, and decoding it would
            # yield a value that does not re-encode to itself.
            raise CodecError(f"malformed {_TUPLE_TAG!r} tag {value!r}")
        return tuple(_from_wire_value(item, depth + 1) for item in items)
    return {
        key: _from_wire_value(item, depth + 1) for key, item in value.items()
    }


def _encode_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


_JSON_DECODER = json.JSONDecoder()


def _is_int(value) -> bool:
    # ``bool`` subclasses ``int`` but is never a valid wire integer.
    return type(value) is int


# ----------------------------------------------------------------------
# Init context
# ----------------------------------------------------------------------
def _dataclass_doc(value, expected_type, where: str):
    if value is None:
        return None
    if type(value) is not expected_type:
        raise CodecError(
            f"{where} must be {expected_type.__name__} or None for the "
            f"v4 wire, got {type(value).__name__}"
        )
    return _to_wire_value(asdict(value), where)


def encode_context(context) -> bytes:
    """Encode the ``(instance, config, options)`` init triple.

    Returns the canonical-JSON context document as UTF-8 bytes.  Raises
    :class:`CodecError` when any compute-relevant part would not
    survive the JSON round-trip exactly: exotic node ids, or config /
    options objects that are not the stock dataclasses.  Instance
    *metadata* rides in its :func:`repro.io.instance_to_dict` coerced
    form — the same coercion the on-disk instance format applies — and
    is deliberately exempt from the exactness rule: nothing downstream
    of the wire consumes it for compute, and cache keys use the shipped
    coordinator-side fingerprint, never a worker-side re-derivation.
    """
    try:
        instance, config, options = context
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed context triple: {exc}") from exc
    if not isinstance(instance, TomographyInstance):
        raise CodecError(
            f"context instance must be a TomographyInstance, got "
            f"{type(instance).__name__}"
        )
    for link in instance.topology.links:
        if not isinstance(link.src, (str, int)) or not isinstance(
            link.dst, (str, int)
        ):
            raise CodecError(
                f"link {link.name!r} has non-JSON node ids "
                f"({type(link.src).__name__}/{type(link.dst).__name__}); "
                "the codec carries str and int node ids only"
            )
    doc = {
        "codec": CODEC_VERSION,
        "fingerprint": instance_fingerprint(instance),
        "instance": instance_to_dict(instance),
        "config": _dataclass_doc(config, ExperimentConfig, "config"),
        "options": _dataclass_doc(options, AlgorithmOptions, "options"),
    }
    return _encode_json(doc)


def decode_context(data) -> tuple[tuple, str]:
    """Decode :func:`encode_context` output.

    Returns ``((instance, config, options), fingerprint)``.  The
    fingerprint is the coordinator's, shipped rather than recomputed,
    so worker cache keys cannot drift from the coordinator's even if
    fingerprinting details ever change between builds.
    """
    try:
        doc = json.loads(bytes(data).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed v4 context payload: {exc}") from exc
    if not isinstance(doc, dict) or not (
        _is_int(doc.get("codec")) and doc["codec"] == CODEC_VERSION
    ):
        raise CodecError(
            f"unsupported v4 context codec "
            f"{doc.get('codec') if isinstance(doc, dict) else doc!r}"
        )
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise CodecError("v4 context is missing its instance fingerprint")
    try:
        instance = instance_from_dict(doc["instance"])
        config = (
            ExperimentConfig(**_from_wire_value(doc["config"]))
            if doc.get("config") is not None
            else None
        )
        options = (
            AlgorithmOptions(**_from_wire_value(doc["options"]))
            if doc.get("options") is not None
            else None
        )
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed v4 context document: {exc!r}") from exc
    return (instance, config, options), fingerprint


# ----------------------------------------------------------------------
# Task chunks
# ----------------------------------------------------------------------
#: ``(field, low, high)`` for each wire seed field, in :class:`SeedSpec`
#: order: the field must be an int in ``[low, high)`` (``high`` of None
#: is unbounded).  ``entropy`` may also be null, and ``spawn_key`` is a
#: sequence whose every word obeys the bounds.  numpy rejects values
#: outside them only when the seed materialises, inside a pool child;
#: the codec rejects them up front instead, on encode and decode.
_SEED_BOUNDS = (
    ("state", 0, 1 << 128),
    ("inc", 0, 1 << 128),
    ("has_uint32", 0, 2),
    ("uinteger", 0, 1 << 32),
    ("entropy", 0, None),
    ("spawn_key", 0, 1 << 64),
    ("pool_size", 4, 1 << 8),
    ("n_children_spawned", 0, 1 << 32),
)


def _in_bounds(value, low: int, high) -> bool:
    return _is_int(value) and low <= value and (high is None or value < high)


def _check_seed(fields) -> None:
    """Raise :class:`CodecError` unless ``fields`` is a valid wire seed.

    Encode and decode run the same check, so a seed numpy would reject
    at materialisation fails before any worker is contacted, and a
    corrupt one fails at decode rather than inside a pool child.
    """
    if type(fields) is not list or len(fields) != len(_SEED_BOUNDS):
        raise CodecError(
            f"v4 seed must be null or a list of {len(_SEED_BOUNDS)} "
            f"fields, got {fields!r}"
        )
    for (name, low, high), value in zip(_SEED_BOUNDS, fields):
        if name == "spawn_key":
            # A tuple on encode; JSON hands the decoder a list.
            valid = isinstance(value, (list, tuple)) and all(
                _in_bounds(word, low, high) for word in value
            )
        else:
            valid = (name == "entropy" and value is None) or _in_bounds(
                value, low, high
            )
        if not valid:
            raise CodecError(
                f"v4 seed field {name}={value!r} is not an int in "
                f"[{low}, {high})"
            )


def _seed_to_wire(seed):
    """``None``, or the eight :func:`generator_spec` fields as a list."""
    if seed is None:
        return None
    if isinstance(seed, SeedSpec):
        # Re-encoding a decoded task: the lazy seed already carries the
        # exact wire fields, no generator to describe.
        fields = [getattr(seed, name) for name in SeedSpec.__slots__]
    else:
        try:
            spec = generator_spec(seed)
        except ValueError as exc:
            raise CodecError(f"task seed not v4-encodable: {exc}") from exc
        fields = [spec[name] for name in SeedSpec.__slots__]
    _check_seed(fields)
    return fields


def _seed_from_wire(fields):
    """Validate a wire seed and wrap it as a lazy :class:`SeedSpec`.

    Decode returns :class:`SeedSpec` rather than an eager generator:
    numpy reconstruction (~15µs per seed) would dominate chunk decode,
    and every consumer coerces seeds through :func:`as_generator`, so
    materialisation defers to the pool children at execution time.
    """
    if fields is None:
        return None
    _check_seed(fields)
    state, inc, has_uint32, uinteger, entropy, spawn_key, *rest = fields
    # JSON returns the key as a list; SeedSequence keeps it a tuple.
    return SeedSpec(
        state, inc, has_uint32, uinteger, entropy, tuple(spawn_key), *rest
    )


def encode_tasks(tasks) -> bytes:
    """Encode one chunk's :class:`ScenarioTask` list as canonical JSON.

    The document is ``[CODEC_VERSION, [record, ...]]`` with one
    ``[group, factory, kwargs, scenario_seed, run_seed]`` record per
    task; a seed is ``null`` or its :func:`generator_spec` fields in
    :class:`SeedSpec` order.  Raises :class:`CodecError` whenever a
    field would not round-trip exactly.
    """
    records = []
    for task in tasks:
        if not isinstance(task, ScenarioTask):
            raise CodecError(
                f"v4 chunks carry ScenarioTask records, got "
                f"{type(task).__name__}"
            )
        if not _is_int(task.group):
            raise CodecError(
                f"task group must be an int, got {type(task.group).__name__}"
            )
        if not isinstance(task.factory, str) or not isinstance(
            task.factory_kwargs, dict
        ):
            raise CodecError(
                "task factory must be a str and its kwargs a dict"
            )
        records.append(
            [
                task.group,
                task.factory,
                _to_wire_value(
                    task.factory_kwargs, f"factory_kwargs of {task.factory!r}"
                ),
                _seed_to_wire(task.scenario_seed),
                _seed_to_wire(task.run_seed),
            ]
        )
    return _encode_json([CODEC_VERSION, records])


def _task_from_wire(record) -> ScenarioTask:
    if type(record) is not list or len(record) != 5:
        raise CodecError(f"v4 task record must be a 5-list, got {record!r}")
    group, factory, kwargs, scenario_seed, run_seed = record
    if not _is_int(group):
        raise CodecError(f"v4 task group must be an int, got {group!r}")
    if type(factory) is not str:
        raise CodecError(f"v4 task factory must be a str, got {factory!r}")
    # Each record carries its own kwargs object, so every decoded task
    # gets a private dict, as scenario_tasks() builds them.
    kwargs = _from_wire_value(kwargs)
    if type(kwargs) is not dict:
        raise CodecError(f"v4 task kwargs must be an object, got {kwargs!r}")
    return ScenarioTask(
        group=group,
        factory=factory,
        factory_kwargs=kwargs,
        scenario_seed=_seed_from_wire(scenario_seed),
        run_seed=_seed_from_wire(run_seed),
    )


def decode_tasks(data) -> list[ScenarioTask]:
    """Decode :func:`encode_tasks` output back into task records."""
    try:
        text = bytes(data).decode("utf-8")
        doc, end = _JSON_DECODER.raw_decode(text)
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed v4 chunk payload: {exc!r}") from exc
    if end != len(text):
        raise CodecError(
            f"v4 chunk payload has {len(text) - end} trailing characters"
        )
    if type(doc) is not list or len(doc) != 2 or type(doc[1]) is not list:
        raise CodecError("malformed v4 chunk payload: not [codec, tasks]")
    if not _is_int(doc[0]) or doc[0] != CODEC_VERSION:
        raise CodecError(f"unsupported v4 chunk codec {doc[0]!r}")
    return [_task_from_wire(record) for record in doc[1]]
