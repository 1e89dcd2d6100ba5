"""A grid of JobSpecs sharing one simulation stream.

A :class:`GridSpec` bundles N :class:`~repro.runner.jobspec.JobSpec`
members over the same workload, window, scheme set, engine and page
size.  Running the grid links each binary once, obtains its committed
stream once (a trace's decoded segment, or a live program's in-memory
capture), and scores every member on it with the
:class:`~repro.cpu.grid.MultiConfigEngine` — one sub-pass per group of
members that agree outside :data:`~repro.config.GRID_MEMBER_FIELDS`
(so iL1 addressing may differ within a grid; iTLB geometry and energy
accounting may differ within a sub-pass).  The result is one
:class:`~repro.sim.multi.CombinedRun` per member, each
**bit-identical** to its member's independent :meth:`JobSpec.run` —
which is the same pass with one member.

Grids are a *planning* construct, not a result identity: every member
result lands in the :class:`~repro.runner.store.ResultStore` under the
member's own unchanged key, so cache hits stay free for future
single-config jobs and a grid never mints new cache entries.  The grid's
own :attr:`key` (hashed over the member keys) names only transient
artifacts — file-queue job files and telemetry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from repro.cpu.grid import grid_invariants_key
from repro.errors import ConfigError
from repro.runner.jobspec import SPEC_FORMAT, UNREADABLE_DIGEST, JobSpec

def grid_eligible(spec: JobSpec) -> bool:
    """Whether ``spec`` may join a grid at all: any ``fast``-engine
    spec — a live workload's stream is captured once, a trace's decoded
    once — except an unreadable-digest spec, which must fail as itself.
    The ``ooo`` engine steps one config at a time.  :func:`plan_units`
    still leaves a spec that finds no partner as a solo job (the
    one-member case of the same pass)."""
    return (spec.engine == "fast"
            and spec.workload_digest != UNREADABLE_DIGEST)


def _unit_fields(spec: JobSpec) -> Dict[str, object]:
    """What every member of one grid shares: the workload (and its
    content digest), window, scheme set, engine and page size."""
    return {"workload": spec.workload,
            "workload_digest": spec.workload_digest,
            "instructions": spec.instructions, "warmup": spec.warmup,
            "schemes": spec.schemes, "engine": spec.engine,
            "page size": spec.config.mem.page_bytes}


#: what a backend executes: a single job, or a grid of them sharing a
#: pass.  Backends flatten a grid's outcomes into member order, so a
#: planned queue of units always answers the expanded spec list.
WorkUnit = Union[JobSpec, "GridSpec"]


def plan_units(specs: Sequence[JobSpec]) -> List[WorkUnit]:
    """Partition unique cache-missing specs into shareable grids.

    Eligible specs that agree on :func:`_unit_fields` — workload, window,
    scheme set, engine and page size — are merged into one
    :class:`GridSpec`; everything else stays a standalone
    :class:`JobSpec`.  Units come back in first-appearance order with
    members in input order, and :func:`expand_units` of the result is a
    permutation-free re-listing of the input (the sweep relies on
    answering by key, not position).
    """
    groups: Dict[tuple, List[JobSpec]] = {}
    for position, spec in enumerate(specs):
        group_key = (tuple(_unit_fields(spec).values())
                     if grid_eligible(spec) else (None, position))
        groups.setdefault(group_key, []).append(spec)
    return [GridSpec(members=tuple(members)) if len(members) > 1
            else members[0] for members in groups.values()]


def expand_units(units: Sequence[WorkUnit]) -> List[JobSpec]:
    """The member specs of ``units``, flattened in execution order —
    the order backends return outcomes in."""
    expanded: List[JobSpec] = []
    for unit in units:
        if isinstance(unit, GridSpec):
            expanded.extend(unit.members)
        else:
            expanded.append(unit)
    return expanded


@dataclass(frozen=True)
class GridSpec:
    """N JobSpecs over one workload stream, scored in shared passes."""

    members: Tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("a grid needs at least one member spec")
        object.__setattr__(self, "members", tuple(self.members))
        anchor = self.members[0]
        if not grid_eligible(anchor):
            raise ConfigError(
                f"spec '{anchor.describe()}' cannot join a grid: grids "
                "share one fast-engine pass over a readable workload")
        shared = _unit_fields(anchor)
        seen = set()
        for position, member in enumerate(self.members):
            for field, value in _unit_fields(member).items():
                if value != shared[field]:
                    raise ConfigError(
                        f"grid member {position} differs from member 0 "
                        f"in '{field}' — a grid shares one stream per "
                        "binary, so only the rest of the machine config "
                        "may vary")
            if member.key in seen:
                raise ConfigError(
                    f"grid member {position} duplicates an earlier "
                    "member (same content key); deduplicate before "
                    "building the grid")
            seen.add(member.key)

    @cached_property
    def sub_passes(self) -> int:
        """Engine passes per binary: one per distinct set of
        shared-stream fields (:meth:`MachineConfig.grid_invariants`)."""
        return len({grid_invariants_key(member.config)
                    for member in self.members})

    # -- convenience ---------------------------------------------------

    @property
    def workload(self) -> str:
        return self.members[0].workload

    def describe(self) -> str:
        anchor = self.members[0]
        addressings = "/".join(dict.fromkeys(
            m.config.il1_addressing.value for m in self.members))
        entries = ",".join(dict.fromkeys(
            str(m.config.itlb.entries) for m in self.members))
        return (f"grid[{len(self.members)}] {anchor.workload} "
                f"[{addressings}, iTLB {entries}] "
                f"{anchor.instructions:,}i/{anchor.warmup:,}w")

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "kind": "grid",
            "members": [member.to_dict() for member in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ConfigError(
                f"grid spec has format {fmt!r}; this version speaks "
                f"format {SPEC_FORMAT} (mixed-version queue?)")
        if data.get("kind") != "grid":
            raise ConfigError(
                f"expected a grid spec, got kind {data.get('kind')!r}")
        return cls(members=tuple(JobSpec.from_dict(member)
                                 for member in data["members"]))

    @cached_property
    def key(self) -> str:
        """Identity of the *grid as a unit of work* — hashed over the
        member keys, so the same member set always names the same queue
        job file.  Results never persist under this key (each member
        stores under its own :attr:`JobSpec.key`)."""
        canonical = json.dumps(
            {"format": SPEC_FORMAT, "kind": "grid",
             "members": [member.key for member in self.members]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution -----------------------------------------------------

    def run(self) -> List:
        """Execute the shared passes; one CombinedRun per member, in
        member order (no caching — the sweep layer handles stores)."""
        from repro.sim.multi import run_all_schemes_grid
        from repro.workloads.registry import resolve
        anchor = self.members[0]
        return run_all_schemes_grid(
            resolve(anchor.workload),
            [member.config for member in self.members],
            instructions=anchor.instructions, warmup=anchor.warmup,
            schemes=anchor.schemes, engine=anchor.engine)
