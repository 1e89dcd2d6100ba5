"""The fast engine: one pass, every iTLB scheme evaluated side by side.

Two observations from the paper make this engine possible:

1. *"None of these mechanisms affect iL1 and L2 hits or misses"* (Section
   3.3.4) — so the instruction stream, cache behaviour, predictor
   behaviour, and dTLB behaviour can be simulated **once** and shared by
   every scheme;
2. each scheme's lookup decisions depend only on that shared stream plus
   its private CFR/iTLB state — so six small policy state machines can ride
   along on a single functional pass.

Timing is a dependency-aware list-scheduling model of the Table 1 core:

* the front end fetches groups of up to ``fetch_width`` contiguous
  instructions, broken by taken branches and iL1-block boundaries, charging
  iL1 miss latencies and the fixed misprediction penalty;
* each instruction issues when its source registers and a functional unit
  are ready, completes after its latency (plus memory latency for loads),
  and commits in order at ``commit_width`` per cycle;
* fetch stalls when the RUU (window of ``ruu_size``) is full.

Scheme-specific translation stalls (serial PI-PT lookups, VI-VT miss-path
lookups, iTLB miss penalties) accumulate per scheme and are added to the
shared pipeline cycle count — a first-order approximation validated against
the detailed out-of-order engine (see :mod:`repro.experiments.validation`
and ``test_engine_validation`` in
``benchmarks/test_sensitivity_and_extensions.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.branch.predictor import FrontEndPredictor
from repro.config import CacheAddressing, MachineConfig, SchemeName
from repro.core.schemes import (
    ITLBPolicy,
    LookupReason,
    SchemeCounters,
    build_all_policies,
)
from repro.cpu.results import EngineResult, SchemeResult, SharedStats
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.vm.os_model import AddressSpace
from repro.vm.page_table import Protection
from repro.vm.tlb import TLB

_FRONT_DEPTH = 3  #: fetch-queue + decode/dispatch depth in cycles


class FastEngine:
    """Single-pass multi-scheme simulator."""

    def __init__(self, program: Program, config: MachineConfig,
                 schemes: Optional[Sequence[SchemeName]] = None,
                 recorder=None) -> None:
        self.program = program
        self.config = config
        self.addressing = config.mem.il1_addressing
        self.space = AddressSpace(program)
        self.executor = program.make_executor(self.space)
        if recorder is not None:
            # trace capture: every committed StepResult is written to the
            # recorder's trace file as a side effect of stepping
            self.executor = recorder.attach(self.executor, program)
        self.hier = MemoryHierarchy(config.mem)
        self.predictor = FrontEndPredictor(config.branch)
        self.dtlb = TLB(config.dtlb, name="dtlb")
        self._defer_policies = self.addressing is CacheAddressing.VIVT
        self._scheme_names = (tuple(schemes) if schemes is not None
                              else tuple(SchemeName))
        #: one entry per grid member; a plain run has exactly one.  All
        #: members share the decoded stream, predictor, caches, and dTLB —
        #: only the per-scheme iTLB/policy state is replicated, so the
        #: flat ``policies`` list drives the hot loop unchanged.
        self.member_configs: List[MachineConfig] = []
        self._member_policies: List[List[ITLBPolicy]] = []
        self.policies: List[ITLBPolicy] = []
        self._base_policies: List[ITLBPolicy] = []
        self._event_policies: List[ITLBPolicy] = []
        self._install_member(config)

        # shared counters (measurement window)
        self.shared = SharedStats()
        self._page_shift = config.mem.page_bytes.bit_length() - 1
        self._block_shift = self.hier.il1.block_shift
        self._dblock_shift = self.hier.dl1.block_shift
        self._offset_mask = config.mem.page_bytes - 1
        self._dtlb_penalty = config.dtlb.miss_penalty

        # timing state (continuous across warmup/measurement)
        core = config.core
        self._fetch_width = core.fetch_width
        self._commit_width = core.commit_width
        self._mispredict_penalty = config.branch.mispredict_penalty
        self._ready_int = [0] * 32
        self._ready_fp = [0.0] * 32
        # functional-unit pools, indexed by kind_code (None = no structural
        # limit for that kind).  A flat list beats the previous dict: the
        # timing loop consults it once per retired instruction, and list
        # indexing skips the hash.
        self._fu_pools: List[Optional[List[int]]] = [None] * 15
        self._fu_pools[0] = [0] * core.int_alus        # INT_ALU
        self._fu_pools[1] = [0] * core.int_mult_div    # INT_MULT
        self._fu_pools[2] = [0] * core.int_mult_div    # INT_DIV (shares unit)
        self._fu_pools[3] = [0] * core.fp_alus         # FP_ALU
        self._fu_pools[4] = [0] * core.fp_mult_div     # FP_MULT
        self._fu_pools[5] = [0] * core.fp_mult_div     # FP_DIV
        self._fu_pools[6] = [0, 0]                     # LOAD (2 cache ports)
        self._fu_pools[7] = [0, 0]                     # STORE
        self._ring_size = core.ruu_size
        self._commit_ring = [0] * self._ring_size
        self._ring_pos = 0
        self._group_count = 0
        self._fetch_clock = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._group_remaining = 0
        self._group_block = -1
        self._redirect = True  # first fetch starts a group

        # stream-tracking state
        self._last_vpn = -1
        self._last_pfn = -1
        self._last_fetch_block = -1
        self._last_dvpn = -1
        self._last_dpfn = -1
        self._last_dblock = -1
        self._last_dblock_hit = False
        self._prev_outcome = None
        self._first_fetch = True
        # bulk counters
        self._il1_bulk_hits = 0
        self._dtlb_bulk_hits = 0
        self._dl1_bulk_hits = 0
        self._base_structural = 0

    # -- member management -------------------------------------------------------

    def _install_member(self, config: MachineConfig) -> None:
        """Attach one grid member: build its private policy set and splice
        it into the flat lists the hot loop iterates.  Policy state is
        strictly additive (each policy mutates only itself), so members
        never perturb each other or the shared stream."""
        member = build_all_policies(config, self.space.page_table,
                                    defer=self._defer_policies,
                                    names=self._scheme_names)
        serial = self.addressing in (CacheAddressing.PIPT,
                                     CacheAddressing.VIVT)
        base: Optional[ITLBPolicy] = None
        for policy in member:
            policy.serial_penalty = 1 if serial else 0
            if policy.name is SchemeName.BASE:
                base = policy
                self._base_policies.append(policy)
            else:
                self._event_policies.append(policy)
        if base is not None and self.addressing is CacheAddressing.PIPT:
            # Base PI-PT serializes a lookup before *every* fetch group;
            # that stall is added in bulk per group, so per-lookup serial
            # charging must be off to avoid double counting.
            base.serial_penalty = 0
        self.member_configs.append(config)
        self._member_policies.append(member)
        self.policies.extend(member)

    # -- public API ------------------------------------------------------------

    def run(self, instructions: int, warmup: int = 0) -> EngineResult:
        """Execute ``warmup`` useful instructions unmeasured, then measure
        ``instructions`` useful (non-boundary) instructions."""
        return self._run_measured(instructions, warmup)[0]

    def run_grid(self, instructions: int, warmup: int = 0) \
            -> List[EngineResult]:
        """Like :meth:`run`, but return one result per installed grid
        member (in installation order)."""
        return self._run_measured(instructions, warmup)

    def _run_measured(self, instructions: int,
                      warmup: int = 0) -> List[EngineResult]:
        if warmup:
            self._run_window(warmup)
        self._reset_measurement()
        cycles_start = self._commit_cycle
        self._run_window(instructions)
        self._flush_bulk_counters()
        base_cycles = self._commit_cycle - cycles_start
        self.shared.base_cycles = base_cycles
        self.shared.fetch_groups = self._group_count
        return self._collect(base_cycles)

    # -- measurement bookkeeping ------------------------------------------------

    def _reset_measurement(self) -> None:
        self._flush_bulk_counters()
        self.shared = SharedStats()
        self.hier.reset_stats()
        self.dtlb.stats.reset()
        self.predictor.stats.reset()
        for policy in self.policies:
            policy.counters = SchemeCounters()
            policy.extra_cycles = 0
            policy.itlb.stats.reset()
            if hasattr(policy.itlb, "level1"):
                policy.itlb.level1.stats.reset()
                policy.itlb.level2.stats.reset()
        self._base_structural = 0
        self._group_count = 0

    def _flush_bulk_counters(self) -> None:
        il1 = self.hier.il1.stats
        il1.accesses += self._il1_bulk_hits
        il1.hits += self._il1_bulk_hits
        self._il1_bulk_hits = 0
        dl1 = self.hier.dl1.stats
        dl1.accesses += self._dl1_bulk_hits
        dl1.hits += self._dl1_bulk_hits
        self._dl1_bulk_hits = 0
        dstats = self.dtlb.stats
        dstats.accesses += self._dtlb_bulk_hits
        dstats.hits += self._dtlb_bulk_hits
        self._dtlb_bulk_hits = 0

    def _collect(self, base_cycles: int) -> List[EngineResult]:
        shared = self.shared
        shared.il1 = self.hier.il1.stats
        shared.dl1 = self.hier.dl1.stats
        shared.l2 = self.hier.l2.stats
        shared.dtlb = self.dtlb.stats
        shared.predictor = self.predictor.stats
        # bulk per-fetch bookkeeping (HoA comparator, CFR reads) and Base's
        # same-page lookups
        for policy in self.policies:
            policy.note_fetches(shared.instructions)
        if self.addressing is not CacheAddressing.VIVT:
            repeats = shared.instructions - self._base_structural
            for base in self._base_policies:
                base.note_repeat_hits(repeats)
                if self.addressing is CacheAddressing.PIPT:
                    base.extra_cycles += shared.fetch_groups
        collected: List[EngineResult] = []
        for config, member in zip(self.member_configs,
                                  self._member_policies):
            results: Dict[SchemeName, SchemeResult] = {}
            for policy in member:
                results[policy.name] = SchemeResult(
                    scheme=policy.name,
                    counters=policy.counters,
                    itlb_stats=policy.itlb.stats,
                    extra_cycles=policy.extra_cycles,
                    cycles=base_cycles + policy.extra_cycles,
                )
            collected.append(EngineResult(
                program_name=self.program.name,
                config=config,
                addressing=self.addressing,
                shared=shared,
                schemes=results,
                engine="fast",
            ))
        return collected

    # -- main loop ------------------------------------------------------------

    def _run_window(self, budget: int) -> None:
        """Execute ``budget`` useful instructions."""
        executor = self.executor
        shared = self.shared
        page_shift = self._page_shift
        block_shift = self._block_shift
        page_table = self.space.page_table
        vivt = self.addressing is CacheAddressing.VIVT
        useful = 0
        while useful < budget and not executor.halted:
            pc = executor.pc
            vpn = pc >> page_shift
            page_changed = vpn != self._last_vpn
            prev_outcome = self._prev_outcome

            # ---- page-change accounting and translation housekeeping ----
            if page_changed:
                self._last_vpn = vpn
                pte = page_table.translate(vpn, prot=Protection.EXEC,
                                           allocate=False)
                self._last_pfn = pte.pfn
                if prev_outcome is not None and prev_outcome.taken:
                    if prev_outcome.instr.is_boundary_branch:
                        shared.page_crossings_boundary += 1
                    else:
                        shared.page_crossings_branch += 1
                else:
                    shared.page_crossings_boundary += 1
            pa = (self._last_pfn << page_shift) | (pc & self._offset_mask)

            # ---- scheme triggers at the fetch point (VI-PT / PI-PT) ----
            if not vivt and (prev_outcome is not None or page_changed
                             or self._first_fetch):
                seq_boundary = not (prev_outcome is not None
                                    and prev_outcome.taken)
                for policy in self._event_policies:
                    if policy.wants_lookup(vpn):
                        reason = policy.fetch_reason(seq_boundary)
                        policy.extra_cycles += (policy.serial_penalty
                                                + policy.lookup(vpn, reason))
                if self._base_policies and (page_changed
                                            or self._first_fetch):
                    # one structural event per trigger — member-invariant,
                    # driven by the shared stream, so counted once
                    self._base_structural += 1
                    for base in self._base_policies:
                        base.extra_cycles += (base.serial_penalty
                                              + base.lookup(
                                                  vpn, LookupReason.BRANCH))
            self._first_fetch = False

            # ---- iL1 fetch (with same-block fast path) ----
            fetch_block = pa >> block_shift
            fetch_stall = 0
            if fetch_block == self._last_fetch_block:
                self._il1_bulk_hits += 1
            else:
                self._last_fetch_block = fetch_block
                outcome = self.hier.fetch(pc, pa)
                if not outcome.il1_hit:
                    fetch_stall = outcome.latency - 1
                    if vivt:
                        for policy in self.policies:
                            if policy.wants_lookup(vpn):
                                reason = policy.fetch_reason(True)
                                policy.extra_cycles += (
                                    policy.serial_penalty
                                    + policy.lookup(vpn, reason))
                            else:
                                policy.serve_from_cfr()

            # ---- execute ----
            step = executor.step()
            instr = step.instr
            shared.instructions += 1
            if instr.is_boundary_branch:
                shared.boundary_instructions += 1
            else:
                useful += 1
                shared.useful_instructions += 1

            # ---- data access ----
            mem_stall = 0
            if step.mem_addr is not None:
                mem_stall = self._data_access(step.mem_addr, step.is_store)
                if step.is_store:
                    shared.stores += 1
                else:
                    shared.loads += 1

            # ---- control resolution ----
            outcome = None
            if instr.is_control:
                shared.dynamic_branches += 1
                if step.taken:
                    shared.taken_branches += 1
                outcome = self.predictor.observe(pc, instr, step.taken,
                                                 step.next_pc)
                for policy in self._event_policies:
                    policy.on_control(outcome)
            self._prev_outcome = outcome

            # ---- timing ----
            self._account_timing(pc, instr, fetch_stall, mem_stall, outcome)

    # -- data-side helper ------------------------------------------------------

    def _data_access(self, vaddr: int, is_store: bool) -> int:
        """dTLB + dL1/L2 access; returns the latency beyond a 1-cycle hit
        that the consuming load must wait for."""
        dvpn = vaddr >> self._page_shift
        stall = 0
        if dvpn == self._last_dvpn:
            self._dtlb_bulk_hits += 1
        else:
            self._last_dvpn = dvpn
            entry = self.dtlb.access(dvpn)
            if entry is None:
                prot = Protection.WRITE if is_store else Protection.READ
                pte = self.space.page_table.translate(dvpn, prot=prot)
                self.dtlb.fill(dvpn, pte.pfn, pte.prot)
                self._last_dpfn = pte.pfn
                stall += self._dtlb_penalty
                self.shared.dtlb_miss_cycles += self._dtlb_penalty
            else:
                self._last_dpfn = entry[0]
        pa = ((self._last_dpfn << self._page_shift)
              | (vaddr & self._offset_mask))
        dblock = pa >> self._dblock_shift
        if dblock == self._last_dblock and self._last_dblock_hit:
            self._dl1_bulk_hits += 1
        else:
            self._last_dblock = dblock
            outcome = self.hier.data(vaddr, pa, is_store)
            self._last_dblock_hit = True  # allocated on miss: now resident
            if not outcome.dl1_hit:
                stall += outcome.latency - 1
        return stall

    # -- timing model ------------------------------------------------------------

    def _account_timing(self, pc: int, instr, fetch_stall: int,
                        mem_stall: int, outcome) -> None:
        # -- front end: group formation --
        fetch_block = pc >> self._block_shift
        if (self._redirect or self._group_remaining == 0
                or fetch_block != self._group_block):
            self._fetch_clock += 1
            self._group_count += 1
            self._group_remaining = self._fetch_width
            self._group_block = fetch_block
            self._redirect = False
        self._group_remaining -= 1
        if fetch_stall:
            self._fetch_clock += fetch_stall
        fetch_t = self._fetch_clock

        # -- RUU occupancy limit --
        ring = self._commit_ring
        pos = self._ring_pos
        oldest_commit = ring[pos]
        if oldest_commit > fetch_t:
            fetch_t = oldest_commit
            self._fetch_clock = oldest_commit

        # -- issue: dependences + functional unit --
        ready_int = self._ready_int
        issue_t = fetch_t + _FRONT_DEPTH
        op = instr.op
        kind = instr.kind_code
        # ready_int[0] is invariantly 0 (every int-file write is guarded
        # by ``if rd:``), so r0 sources read the array directly
        if kind in (3, 4, 5):  # FP ops read the FP file (CVTIF reads int)
            ready_fp = self._ready_fp
            if op is Opcode.CVTIF:
                src1 = ready_int[instr.rs]
            else:
                src1 = ready_fp[instr.rs]
            src2 = ready_fp[instr.rt]
            if src1 > issue_t:
                issue_t = src1
            if src2 > issue_t:
                issue_t = src2
        else:
            src1 = ready_int[instr.rs]
            src2 = ready_int[instr.rt]
            if src1 > issue_t:
                issue_t = src1
            if src2 > issue_t:
                issue_t = src2
            if kind == 7 and instr.rd:  # stores also read the stored value
                src3 = (self._ready_fp[instr.rd] if op is Opcode.FSW
                        else ready_int[instr.rd])
                if src3 > issue_t:
                    issue_t = src3

        fu_pool = self._fu_pools[kind]
        if fu_pool is not None:
            # first unit to free up (ties to the lowest index, exactly as
            # the explicit scan did; min/index run at C speed)
            best_t = min(fu_pool)
            if best_t > issue_t:
                issue_t = best_t
            fu_pool[fu_pool.index(best_t)] = issue_t + 1

        latency = instr.latency  # precomputed op.latency
        if kind == 6:  # load: memory latency beyond the 1-cycle hit
            latency += mem_stall
        elif kind == 7:
            latency = 1  # stores complete into the store queue
            if mem_stall:
                # the miss is handled off the critical path; charge a
                # fraction as store-buffer pressure
                latency += mem_stall >> 3
        complete_t = issue_t + latency

        # -- destination ready --
        if kind in (3, 4, 5):
            if op is Opcode.CVTFI:
                if instr.rd:
                    ready_int[instr.rd] = complete_t
            else:
                self._ready_fp[instr.rd] = complete_t
        elif kind == 6:  # loads (FLW fills the FP file)
            if op is Opcode.FLW:
                self._ready_fp[instr.rd] = complete_t
            elif instr.rd:
                ready_int[instr.rd] = complete_t
        elif kind <= 2:
            if instr.rd:
                ready_int[instr.rd] = complete_t
        elif kind in (10, 12):  # calls write ra
            ready_int[31] = complete_t

        # -- in-order commit, commit_width per cycle --
        candidate = complete_t + 1
        if candidate > self._commit_cycle:
            self._commit_cycle = candidate
            self._commit_slots = 1
        else:
            self._commit_slots += 1
            if self._commit_slots > self._commit_width:
                self._commit_cycle += 1
                self._commit_slots = 1
        ring[pos] = self._commit_cycle
        self._ring_pos = (pos + 1) % self._ring_size

        # -- control-flow redirects --
        if outcome is not None:
            if outcome.path_diverged:
                self._fetch_clock += self._mispredict_penalty
                self._redirect = True
            elif outcome.taken:
                self._redirect = True
