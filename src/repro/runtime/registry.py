"""The experiment-kind plugin registry.

Every sweepable experiment in the repo — the serial/thread profiling grids,
the quality and lossless round-trip tables, the write/read I/O grids, the
block-pipelined writes, the DVFS frequency axis, the checkpointed
lifetimes, the multi-tenant cluster scenarios and the dataset facade — is
one :class:`ExperimentKind` declaration, which names in one place:

- the ``SweepSpec`` fields the kind consumes (its CLI argument surface),
- kind-specific spec **validation** (checked eagerly at spec construction),
- the grid **expansion** into :class:`~repro.runtime.spec.GridPoint` work
  items (the deterministic order every figure expects),
- the **evaluate** callables, one per op the expansion emits,
- the **record** dataclass (store registration + JSON schema, both derived),
- the CLI **table** renderer and the record **invariants** behind
  ``tools/check_record_schemas.py``,
- a tiny **conformance** grid, which opts the kind into the full
  ``tests/test_conformance.py`` battery.

This module holds only the mechanism.  The nine built-in kinds are
declared in :mod:`repro.core.kinds`, beside the ``Testbed`` that evaluates
them, and ``cluster``/``dataset`` in their own ``kind.py`` plugins — all
through the same :func:`register` call.  The sweep engine, the result
store, ``repro sweep --kind <name>``, the unified schema checker, and the
conformance battery discover every kind through :func:`get_kind` /
:func:`all_kinds`.  Registration validates the protocol eagerly: a plugin
missing a required member, reusing a kind name or an op, or claiming
unknown spec fields is rejected with a
:class:`~repro.errors.ConfigurationError` at registration time, never
mid-sweep.

Grid-point identity is untouched by the registry: expansions emit the same
``(op, kwargs)`` pairs the hand-threaded drivers did, so content-addressed
store keys (and therefore every golden record) are bit-identical to the
seed tree — pinned by the conformance battery.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import typing
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "CliAxis",
    "ExperimentKind",
    "SWEEP_AXES",
    "all_kinds",
    "axis_spec_value",
    "check_records",
    "cli_axes",
    "evaluate_op",
    "get_kind",
    "kind_names",
    "record_schema",
    "record_types",
    "register",
    "register_record",
    "strip_meta",
    "to_wire",
    "unregister",
]


# -- the CLI axis table -------------------------------------------------------


@dataclass(frozen=True)
class CliAxis:
    """One ``repro sweep`` flag bound to one :class:`SweepSpec` field.

    ``parse`` names how the raw argparse value becomes the spec value:
    ``csv_str``/``csv_float``/``csv_int`` split comma-separated strings,
    ``float``/``int`` pass typed scalars through, ``interval`` keeps policy
    names and converts everything else to seconds, ``flag`` is a plain
    store-true, and ``invert`` maps a ``--no-X`` store-true flag onto a
    default-true spec field.  ``flag`` may be ``None`` for spec-only fields
    with no CLI surface.
    """

    field: str
    flag: str | None
    parse: str
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        """The argparse namespace attribute this axis reads."""
        return self.flag.lstrip("-").replace("-", "_")


#: Every SweepSpec axis a kind may declare in ``spec_fields``, in the
#: canonical ``repro sweep --help`` order.  The CLI builds its sweep flags
#: from this table (restricted to the axes some registered kind consumes).
SWEEP_AXES: tuple[CliAxis, ...] = (
    CliAxis("datasets", "--datasets", "csv_str", "cesm,hacc,nyx,s3d",
            "comma-separated"),
    CliAxis("codecs", "--codecs", "csv_str", "sz2,sz3,zfp,qoz,szx",
            "comma-separated"),
    CliAxis("bounds", "--bounds", "csv_float", "1e-1,1e-2,1e-3,1e-4,1e-5",
            "comma-separated REL error bounds"),
    CliAxis("cpus", "--cpus", "csv_str", "max9480",
            "comma-separated Table-I names"),
    CliAxis("io_libraries", "--io-libraries", "csv_str", "hdf5,netcdf",
            "comma-separated"),
    CliAxis("threads", "--threads", "csv_int", "1",
            "comma-separated thread counts (axis for --kind thread)"),
    CliAxis("rel_bound", "--rel-bound", "float", 1e-3,
            "single bound used by the thread/lossless kinds"),
    CliAxis("include_baseline", "--no-baseline", "invert", False,
            "io/read/pipeline kinds: skip the uncompressed baseline points"),
    CliAxis("n_chunks", "--n-chunks", "int", 8,
            "pipeline kind: chunks streamed through the compress-write pipeline"),
    CliAxis("overlap", "--no-overlap", "invert", False,
            "pipeline kind: disable stage overlap (sequential control run)"),
    CliAxis("freqs", "--freqs", "csv_float", "",
            "dvfs kind: comma-separated core frequencies in GHz "
            "(default: each CPU's canonical DVFS ladder)"),
    CliAxis("mttfs", "--mttfs", "csv_float", "inf,86400,21600",
            "checkpoint kind: comma-separated per-node MTTFs in seconds "
            "('inf' = failure-free control)"),
    CliAxis("work_s", "--work", "float", 3600.0,
            "checkpoint kind: failure-free compute seconds per lifetime"),
    CliAxis("interval", "--interval", "interval", "daly",
            "checkpoint kind: 'daly', 'young', or explicit seconds "
            "between checkpoints"),
    CliAxis("n_nodes", "--n-nodes", "int", 1,
            "checkpoint kind: allocation width (system MTTF = mttf / nodes)"),
    CliAxis("seed", "--seed", "int", 0,
            "checkpoint kind: failure-history seed"),
    CliAxis("downtime_s", "--downtime", "float", 60.0,
            "checkpoint kind: node outage seconds per failure"),
    CliAxis("lossless_codecs", "--lossless-codecs", "csv_str",
            "zstd,blosc,fpzip,fpc",
            "lossless kind: comma-separated lossless baseline codecs"),
    CliAxis("paper_fidelity", "--paper-fidelity", "flag", False,
            "thread kind: drop codec/ndim combos the paper's toolchain "
            "could not run"),
    CliAxis("compression", "--compression", "str", "",
            "compression-spec string, e.g. 'lossy,sz3,rel,1e-3' or "
            "'auto,rel,1e-3'; derives/narrows the codec and bound axes "
            "(see docs/user-guide/datasets.md)"),
    CliAxis("scenario", "--scenario", "str", "",
            "cluster kind: scenario string, e.g. "
            "'nodes=8; a=ranks:96,codec:szx; b=ranks:96,codec:none' "
            "(see docs/user-guide/cluster.md)"),
)

#: The spec fields a kind may legally claim.
KNOWN_SPEC_FIELDS = frozenset(a.field for a in SWEEP_AXES)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def axis_spec_value(axis: CliAxis, raw):
    """Convert one parsed CLI value into its SweepSpec field value."""
    if axis.parse == "csv_str":
        return _csv(raw)
    if axis.parse == "csv_float":
        return tuple(float(x) for x in _csv(raw))
    if axis.parse == "csv_int":
        return tuple(int(x) for x in _csv(raw))
    if axis.parse == "interval":
        return raw if raw in ("daly", "young") else float(raw)
    if axis.parse == "invert":
        return not raw
    return raw  # float / int / flag: argparse already typed it


def cli_axes() -> tuple[CliAxis, ...]:
    """The axes (with CLI flags) consumed by at least one registered kind."""
    used: set[str] = set()
    for kind in all_kinds():
        used.update(kind.spec_fields)
    return tuple(a for a in SWEEP_AXES if a.flag is not None and a.field in used)


# -- the kind protocol --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind, declared in a single place.

    Required members: ``name``, ``help``, ``record`` (the record dataclass;
    its ``__name__`` is the store's ``__record__`` tag), ``expand``,
    ``evaluate`` (op name -> callable(testbed, **kwargs), one entry per op
    the expansion emits) and ``spec_fields``.  Optional: ``validate``
    (extra spec checks), ``table`` (CLI renderer), ``invariants``
    (JSON-record checks for the schema gate), and ``conformance`` (tiny
    SweepSpec overrides enrolling the kind in the conformance battery).
    """

    name: str
    help: str
    record: type
    expand: typing.Callable[..., list]  # SweepSpec -> [GridPoint]
    evaluate: dict  # op -> callable(testbed, **kwargs)
    spec_fields: tuple[str, ...]  # SweepSpec axes the kind consumes
    validate: typing.Callable[..., None] | None = None
    table: typing.Callable[[list], str] | None = None
    invariants: typing.Callable[[list], list] | None = None
    conformance: dict | None = field(default=None, hash=False)

    def json_schema(self) -> dict:
        """The JSON schema of this kind's encoded records."""
        return record_schema(self.record)

    def check_records(self, records: list) -> list:
        """Schema + invariant violations in CLI-format JSON ``records``."""
        return check_records(self, records)


_LOCK = threading.Lock()
_KINDS: dict[str, ExperimentKind] = {}
_OPS: dict[str, typing.Callable] = {}  # op -> the evaluate callable
#: Extra record dataclasses (campaign results, plugin side records) that
#: encode/decode through the store without being a kind's primary record.
_EXTRA_RECORDS: dict[str, type] = {}
_RECORD_TYPES_CACHE: dict[str, type] | None = None


def _required(kind, member: str, check, what: str) -> None:
    value = getattr(kind, member, None)
    if not check(value):
        raise ConfigurationError(
            f"experiment kind {getattr(kind, 'name', kind)!r} is missing or "
            f"mis-declares protocol member {member!r}: expected {what}"
        )


def register(kind: ExperimentKind) -> ExperimentKind:
    """Register an experiment kind, validating the protocol eagerly.

    Raises :class:`ConfigurationError` on a duplicate name, a missing or
    non-callable protocol member, an unknown spec field, or an evaluate
    entrypoint that conflicts with an already-registered one — at
    registration time, never from inside a worker pool.
    """
    _required(kind, "name", lambda v: isinstance(v, str) and v, "a non-empty str")
    _required(kind, "help", lambda v: isinstance(v, str) and v, "a one-line str")
    _required(
        kind, "record",
        lambda v: isinstance(v, type) and dataclasses.is_dataclass(v),
        "a record dataclass",
    )
    _required(kind, "expand", callable, "a callable(spec) -> [GridPoint]")
    _required(
        kind, "evaluate",
        lambda v: isinstance(v, dict) and v and all(
            isinstance(op, str) and op and callable(fn) for op, fn in v.items()
        ),
        "a non-empty dict of op names -> callables(testbed, **kwargs)",
    )
    _required(
        kind, "spec_fields",
        lambda v: isinstance(v, tuple) and all(isinstance(f, str) for f in v),
        "a tuple of SweepSpec field names",
    )
    unknown = set(kind.spec_fields) - KNOWN_SPEC_FIELDS
    if unknown:
        raise ConfigurationError(
            f"experiment kind {kind.name!r} claims unknown spec fields "
            f"{sorted(unknown)}; known: {sorted(KNOWN_SPEC_FIELDS)}"
        )
    for member in ("validate", "table", "invariants"):
        value = getattr(kind, member, None)
        if value is not None and not callable(value):
            raise ConfigurationError(
                f"experiment kind {kind.name!r}: {member} must be callable or None"
            )
    conformance = getattr(kind, "conformance", None)
    if conformance is not None and not isinstance(conformance, dict):
        raise ConfigurationError(
            f"experiment kind {kind.name!r}: conformance must be a dict of "
            "SweepSpec overrides or None"
        )
    with _LOCK:
        if kind.name in _KINDS:
            raise ConfigurationError(
                f"experiment kind {kind.name!r} is already registered"
            )
        for op, fn in kind.evaluate.items():
            if _OPS.get(op, fn) is not fn:
                raise ConfigurationError(
                    f"experiment kind {kind.name!r}: op {op!r} is already "
                    "registered with a different evaluate entrypoint"
                )
        _KINDS[kind.name] = kind
        _OPS.update(kind.evaluate)
        _invalidate_record_cache()
    return kind


def unregister(name: str) -> None:
    """Remove a registered kind (primarily for tests tearing down plugins)."""
    with _LOCK:
        if name not in _KINDS:
            raise ConfigurationError(f"experiment kind {name!r} is not registered")
        del _KINDS[name]
        # Rebuild the op table: ops may be shared between kinds.
        _OPS.clear()
        for kind in _KINDS.values():
            _OPS.update(kind.evaluate)
        _invalidate_record_cache()


def get_kind(name: str) -> ExperimentKind:
    """Look up a kind; unknown names fail naming every registered kind."""
    kind = _KINDS.get(name)
    if kind is None:
        raise ConfigurationError(
            f"unknown experiment kind {name!r}; known kinds: "
            f"({', '.join(sorted(_KINDS))})"
        )
    return kind


def all_kinds() -> tuple[ExperimentKind, ...]:
    """Every registered kind, in registration order."""
    return tuple(_KINDS.values())


def kind_names() -> tuple[str, ...]:
    """Registered kind names, in registration order."""
    return tuple(_KINDS)


def evaluate_op(testbed, op: str, kwargs: dict):
    """Evaluate one grid point through its kind's evaluate callable."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise ConfigurationError(
            f"no evaluate entrypoint for op {op!r}: not registered by any "
            f"experiment kind ({', '.join(sorted(_OPS))})"
        ) from None
    return fn(testbed, **kwargs)


# -- store registration -------------------------------------------------------


def register_record(cls: type) -> type:
    """Register an auxiliary record dataclass for store encode/decode.

    Kinds register their primary record implicitly; this hook is for side
    records (campaign results, nested plugin payloads) that must round-trip
    through :func:`repro.runtime.store.encode_record` without owning a kind.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(f"{cls!r} is not a dataclass; cannot be a record")
    # Collisions are rejected eagerly — against kind records and nested
    # records too, not just previous register_record calls — so a bad
    # registration never poisons the shared record-type map.
    existing = record_types().get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"record name {cls.__name__!r} is already registered by "
            f"{existing!r}"
        )
    with _LOCK:
        _EXTRA_RECORDS[cls.__name__] = cls
        _invalidate_record_cache()
    return cls


def _invalidate_record_cache() -> None:
    global _RECORD_TYPES_CACHE
    _RECORD_TYPES_CACHE = None


def record_types() -> dict:
    """Every encodable record dataclass, keyed by its ``__record__`` tag.

    Covers each registered kind's primary record, any nested record
    dataclasses reachable through their fields (e.g. ``SerialPoint`` nests
    ``RoundtripRecord``), and auxiliary records from
    :func:`register_record`.
    """
    global _RECORD_TYPES_CACHE
    cached = _RECORD_TYPES_CACHE
    if cached is not None:
        return cached
    out: dict[str, type] = {}

    def add(cls: type) -> None:
        seen = out.get(cls.__name__)
        if seen is cls:
            return
        if seen is not None:
            raise ConfigurationError(
                f"record name {cls.__name__!r} is claimed by two different "
                f"classes: {seen!r} and {cls!r}"
            )
        out[cls.__name__] = cls
        for tp in typing.get_type_hints(cls).values():
            for arg in (tp, *typing.get_args(tp)):
                if dataclasses.is_dataclass(arg) and isinstance(arg, type):
                    add(arg)

    for kind in all_kinds():
        add(kind.record)
    for cls in _EXTRA_RECORDS.values():
        add(cls)
    _RECORD_TYPES_CACHE = out
    return out


# -- JSON schemas (derived from the record dataclasses) -----------------------


def _field_schema(tp) -> dict:
    """The JSON schema of one record field, derived from its type hint."""
    import types

    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        types: list[str] = []
        nonfinite = False
        nested = None
        for arg in typing.get_args(tp):
            sub = _field_schema(arg)
            if "properties" in sub:
                nested = sub
            for t in sub["type"] if isinstance(sub["type"], list) else [sub["type"]]:
                if t not in types:
                    types.append(t)
            nonfinite = nonfinite or sub.get("x-nonfinite", False)
        if nested is not None:
            return nested  # Optional[record] — not used today, be safe
        out = {"type": types[0] if len(types) == 1 else types}
        if nonfinite:
            out["x-nonfinite"] = True
        return out
    if origin in (tuple, list):
        args = typing.get_args(tp)
        if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
            item = args[0]
        elif origin is list and len(args) == 1:
            item = args[0]
        else:
            raise ConfigurationError(
                f"cannot derive a JSON schema for field type {tp!r}: only "
                "homogeneous sequences (tuple[X, ...] / list[X]) are supported"
            )
        return {"type": "array", "items": _field_schema(item)}
    if dataclasses.is_dataclass(tp):
        return record_schema(tp)
    if tp is type(None):
        return {"type": "null"}
    if tp is bool:
        return {"type": "boolean"}
    if tp is int:
        return {"type": "integer"}
    if tp is float:
        # ``repro sweep --json`` emits non-finite floats as repr strings
        # ("inf"/"-inf"/"nan") to stay RFC 8259; the validator accepts a
        # string here only when it parses to a non-finite float.
        return {"type": "number", "x-nonfinite": True}
    if tp is str:
        return {"type": "string"}
    raise ConfigurationError(f"cannot derive a JSON schema for field type {tp!r}")


def record_schema(record_cls: type) -> dict:
    """The JSON schema of one record dataclass as the CLI/tools emit it."""
    hints = typing.get_type_hints(record_cls)
    names = [f.name for f in dataclasses.fields(record_cls)]
    properties = {"__record__": {"const": record_cls.__name__}}
    for name in names:
        properties[name] = _field_schema(hints[name])
    return {
        "$id": f"repro.record.{record_cls.__name__}",
        "type": "object",
        "required": ["__record__", *names],
        "additionalProperties": False,
        "properties": properties,
    }


def _check_value(value, schema: dict, where: str, errors: list) -> None:
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{where}: expected {schema['const']!r}, got {value!r}")
        return
    if "properties" in schema:
        _check_object(value, schema, where, errors)
        return
    if "items" in schema:
        if not isinstance(value, list):
            errors.append(f"{where}: wrong type {type(value).__name__}")
            return
        for i, item in enumerate(value):
            _check_value(item, schema["items"], f"{where}[{i}]", errors)
        return
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    for t in types:
        if t == "null" and value is None:
            return
        if t == "boolean" and isinstance(value, bool):
            return
        if t == "integer" and isinstance(value, int) and not isinstance(value, bool):
            return
        if t == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return
        if t == "string" and isinstance(value, str):
            return
    if schema.get("x-nonfinite") and isinstance(value, str):
        try:
            if not math.isfinite(float(value)):
                return  # "inf" / "-inf" / "nan" repr of a non-finite float
        except ValueError:
            pass
    errors.append(f"{where}: wrong type {type(value).__name__}")


def _check_object(record, schema: dict, where: str, errors: list) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: not an object")
        return
    for name in schema["required"]:
        if name not in record:
            errors.append(f"{where}: missing field {name!r}")
    for name, value in record.items():
        sub = schema["properties"].get(name)
        if sub is None:
            errors.append(f"{where}: unexpected field {name!r}")
        else:
            _check_value(value, sub, f"{where}.{name}", errors)


def strip_meta(records):
    """Drop ``__meta__``-tagged elements from a CLI-format JSON array.

    ``repro sweep --json`` appends one trailing ``{"__meta__": ...}``
    element with engine/store run statistics; it is observability payload,
    not a record, so every schema/invariant consumer skips it here.
    """
    if not isinstance(records, list):
        return records
    return [r for r in records if not (isinstance(r, dict) and "__meta__" in r)]


def check_record_payloads(record_cls: type, records) -> list:
    """Schema violations in CLI-format JSON ``records`` of one dataclass.

    ``__meta__`` elements (sweep run statistics) are skipped, never
    validated — they are deliberately outside every record schema.  Also
    the whole check for records registered through :func:`register_record`
    without owning a kind (campaign results, nested plugin payloads), so
    ``tools/check_record_schemas.py`` can validate their JSON too.
    """
    records = strip_meta(records)
    if not isinstance(records, list) or not records:
        return ["expected a non-empty JSON array of records"]
    errors: list[str] = []
    schema = record_schema(record_cls)
    for i, rec in enumerate(records):
        _check_object(rec, schema, f"record[{i}]", errors)
    return errors


def check_records(kind: ExperimentKind, records) -> list:
    """All schema + invariant violations in CLI-format JSON ``records``."""
    errors = check_record_payloads(kind.record, records)
    if errors or kind.invariants is None:
        return errors  # schema violations make the invariants meaningless
    return kind.invariants(strip_meta(records))


def to_wire(records) -> list:
    """Records as ``repro sweep --json`` emits them (strict RFC 8259).

    Non-finite floats become their repr strings ("inf"/"-inf"/"nan") —
    ``json.dumps`` would otherwise print bare ``Infinity`` tokens that
    strict parsers reject.  This is the exact format
    :func:`check_records` and ``tools/check_record_schemas.py`` validate.
    """
    from repro.runtime.store import encode_record

    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, list):
            return [finite(v) for v in value]
        return value

    return [finite(encode_record(r)) for r in records]
