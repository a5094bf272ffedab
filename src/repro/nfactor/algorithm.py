"""NFactor end-to-end (paper Algorithm 1 plus §3.2 preprocessing).

Pipeline::

    source ──parse──▶ Program
           ──(socket NF? unfold_tcp)──▶ packet-level Program
           ──normalize_structure──▶ entry function located
           ──flatten──▶ flat block (module init + inlined entry)
           ──PDG──▶ dependences
           1. packet slice     = ∪ BackwardSlice(send_packet stmts)
           2. StateAlyzer      = pktVar / cfgVar / oisVar / logVar
           3. state slice      = ∪ BackwardSlice(oisVar assignments)
           4. executable slice = pkt ∪ state (+ control-jump closure)
           5. symbolic exec    = execution paths of the sliced entry
           6. refactor         = match/action tables (NFModel)

Use :class:`NFactor` for full control, or the one-call
:func:`synthesize_model` convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import cache as artifact_cache
from repro.interp.interpreter import Env, Interpreter
from repro.interp.values import deep_copy
from repro.lang.ir import (
    Block,
    ECall,
    Program,
    Stmt,
    iter_block,
    stmt_calls,
    stmt_defs,
    stmt_uses,
    SIf,
    SWhile,
)
from repro.lang.parser import parse_program
from repro.model.matchaction import NFModel
from repro.model.serialize import model_to_json
from repro.model.simulator import ModelSimulator
from repro.nfactor.refactor import build_model, executable_slice
from repro.nfactor.tcp_unfold import has_socket_calls, unfold_tcp
from repro.nfactor.transforms import NormalizeReport, normalize_structure
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pdg.flatten import FlatView, flatten_program
from repro.pdg.pdg import PDG, build_pdg
from repro.slicing.criteria import SliceCriterion
from repro.slicing.static import StaticSlicer
from repro.statealyzer.classify import VarCategories, classify_variables
from repro.symbolic.engine import EngineConfig, SymbolicEngine
from repro.symbolic.expr import SVar, SymDict, SymPacket
from repro.symbolic.solver import global_cache as _global_constraint_cache
from repro.symbolic.state import PathResult
from repro.util.timer import Stopwatch

PKT_OUTPUT_FUNC = "send_packet"


@dataclass
class NFactorConfig:
    """Synthesis tunables."""

    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Synthesize for every configuration instead of the deployed one:
    #: scalar cfgVars read by branch conditions become free ``cfg.*``
    #: variables, so the model splits into per-config tables (paper
    #: Fig. 6 / Table 2).  Off by default: a deployed NF runs exactly
    #: one configuration, its module-level constants.
    parametric: bool = False
    #: Memoize pipeline phases through the persistent artifact store
    #: (:mod:`repro.cache`).  Purely a when-work-happens knob: cached
    #: and uncached runs produce byte-identical models.  Also gated by
    #: the store's own enablement (``REPRO_CACHE=off`` / ``--no-cache``).
    artifact_cache: bool = True


@dataclass
class SynthesisStats:
    """Timings and sizes reported per synthesis (paper Table 2 columns).

    ``phase_timings`` maps pipeline phase name → wall seconds and is
    always populated (its collection is a pair of monotonic-clock reads
    per phase); ``metrics`` is the ambient metrics-registry snapshot,
    populated when the synthesis ran under an installed registry (see
    :mod:`repro.obs`) and empty otherwise.
    """

    source_loc: int = 0
    ir_loc: int = 0
    slice_loc: int = 0
    slice_ir_loc: int = 0
    path_loc_max: int = 0
    path_loc_avg: float = 0.0
    slicing_time_s: float = 0.0
    se_time_s: float = 0.0
    n_paths: int = 0
    n_entries: int = 0
    solver_checks: int = 0
    solver_cache_hits: int = 0
    solver_cache_misses: int = 0
    #: Checks the solver could not decide (treated as feasible, so each
    #: one may keep a spurious path) and paths cut by a loop or step
    #: budget (missing from the model).  Surfaced, never folded away.
    solver_unknowns: int = 0
    paths_truncated: int = 0
    # Engine cold-path counters (docs/internals.md §9); frontier runs
    # fold the worker processes' counts in.
    states_explored: int = 0
    #: Always 0: no state is grafted; perfbench's synth-cold still reads it.
    pruned_subsumed: int = 0
    witness_hits: int = 0
    phase_timings: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SynthesisResult:
    """Everything the synthesis produced."""

    model: NFModel
    program: Program
    flat: FlatView
    pdg: PDG
    pkt_slice: Set[int]
    state_slice: Set[int]
    union_slice: Set[int]
    sliced_entry: Block
    categories: VarCategories
    paths: List[PathResult]
    module_env: Dict[str, Any]
    sym_env: Dict[str, Any]
    stats: SynthesisStats
    normalize_report: NormalizeReport
    unfolded: bool = False

    @property
    def pkt_param(self) -> str:
        return self.flat.entry_params[0] if self.flat.entry_params else "pkt"

    def make_simulator(self) -> ModelSimulator:
        """A fresh model simulator seeded with the program's initial state."""
        return ModelSimulator(
            self.model, deep_copy(self.module_env), pkt_param=self.pkt_param
        )

    def make_compiled_simulator(self, dispatch: bool = True):
        """A fresh compiled simulator (see :mod:`repro.model.compile`).

        The :class:`~repro.model.compile.CompiledModel` is memoized on
        the result, so repeated calls pay the lowering cost once.
        """
        from repro.model.compile import compile_model

        compiled = getattr(self, "_compiled_model", None)
        if compiled is None or compiled.dispatch != dispatch:
            compiled = compile_model(
                self.model, pkt_param=self.pkt_param, dispatch=dispatch
            )
            self._compiled_model = compiled
        return compiled.simulator(deep_copy(self.module_env))

    def make_reference(self) -> Interpreter:
        """A fresh concrete interpreter of the original program."""
        interp = Interpreter(program=self.program)
        interp.run_module()
        return interp

    def slice_source_lines(self) -> Set[int]:
        """Source lines of the union slice (Fig. 1 presentation)."""
        return self.flat.source_lines(self.union_slice)


@dataclass
class _Prep:
    """Intermediate products of the shared pipeline front half."""

    flat: FlatView
    module_part: Block
    entry_part: Block
    pkt_param: str
    loop_sid: int
    pdg: PDG
    slicer: StaticSlicer
    pkt_slice: Set[int]
    categories: VarCategories
    module_env: Dict[str, Any]
    sym_env: Dict[str, Any]


def _canon_value(value: Any) -> Any:
    """Sets → sorted tuples so config values encode order-independently."""
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


def _prep_config_fingerprint(config: NFactorConfig) -> Tuple:
    """Fingerprint of the config fields the pipeline front half reads."""
    return (
        ("parametric", config.parametric),
    )


#: EngineConfig fields that change *when/how fast* work happens, never
#: what is computed (behaviour-preserving by construction, see
#: docs/internals.md §9) — excluded from fingerprints so toggling them
#: shares cache entries.
_PERF_ONLY_ENGINE_FIELDS = frozenset(
    {
        "solver_cache",
        "witness_shortcut",
        "parallel_paths",
    }
)


def _full_config_fingerprint(config: NFactorConfig) -> Tuple:
    """Fingerprint of every output-affecting config field.

    Iterates the dataclasses so a future field is included (and so
    invalidates old entries) by default; only the cache toggles and the
    perf-only engine toggles are excluded — they change *when* work
    happens, never what is computed, so cached/uncached runs may share
    keys.  The parallel "frontier" strategy is byte-identical to
    sequential dfs (canonical path ordering), so it normalizes to "dfs"
    in the key.
    """

    def engine_value(name: str) -> Any:
        value = getattr(config.engine, name)
        if name == "strategy" and value == "frontier":
            return "dfs"
        return _canon_value(value)

    engine = tuple(
        (f.name, engine_value(f.name))
        for f in fields(EngineConfig)
        if f.name not in _PERF_ONLY_ENGINE_FIELDS
    )
    outer = tuple(
        (f.name, _canon_value(getattr(config, f.name)))
        for f in fields(NFactorConfig)
        if f.name not in ("engine", "artifact_cache")
    )
    return engine + outer


class NFactor:
    """The NFactor synthesis tool.

    When constructed from source text, the pipeline memoizes its phases
    through the persistent artifact store (:mod:`repro.cache`): the
    frontend (parse/unfold/normalize), the prepared analysis state
    (flatten/PDG/packet slice/classification/environments) and the
    state/executable slices each load from the cache when the source
    and relevant configuration are unchanged.  Cache hits are
    byte-for-byte equivalent to recomputation (docs/internals.md §8).
    """

    def __init__(
        self,
        program: Program | str,
        name: str = "<nf>",
        entry: Optional[str] = None,
        config: Optional[NFactorConfig] = None,
    ) -> None:
        self._phase_timings: Dict[str, float] = {}
        self.config = config or NFactorConfig()
        self._frontend_key: Optional[str] = None
        if isinstance(program, str) and self.config.artifact_cache:
            # Keyed on function-level source units, not the raw text: an
            # edit to a handler this target never reaches derives the
            # same key (docs/internals.md §15).
            self._frontend_key = artifact_cache.artifact_key(
                "frontend",
                artifact_cache.frontend_key_material(program, name, entry),
            )
            cached = artifact_cache.get_store().get_object(
                "frontend", self._frontend_key
            )
            if cached is not None:
                self.program, self.normalize_report, self.unfolded = cached
                return
        if isinstance(program, str):
            with obs_trace.phase("parse", self._phase_timings):
                program = parse_program(program, name=name, entry=entry)
        elif entry is not None:
            program.entry = entry
        self.unfolded = False
        if has_socket_calls(program):
            with obs_trace.phase("unfold", self._phase_timings):
                program = unfold_tcp(program)
            self.unfolded = True
        with obs_trace.phase("normalize", self._phase_timings):
            self.program, self.normalize_report = normalize_structure(program)
        if self._frontend_key is not None:
            artifact_cache.get_store().put_object(
                "frontend",
                self._frontend_key,
                (self.program, self.normalize_report, self.unfolded),
            )

    # -- pieces (exposed for benchmarks/ablations) ---------------------------

    def flatten(self) -> Tuple[FlatView, Block, Block]:
        """Flatten; returns (view, module part, entry part)."""
        flat = flatten_program(self.program)
        k = 0
        for stmt in flat.block:
            if stmt.sid in flat.module_sids:
                k += 1
            else:
                break
        return flat, flat.block[:k], flat.block[k:]

    def looped_view(
        self, flat: FlatView, module_part: Block, entry_part: Block
    ) -> Tuple[Block, int]:
        """The analysis view: entry body wrapped in the packet loop.

        NF state persists *across* packet invocations — the store into a
        NAT table happens while processing one packet, the read while
        processing a later one.  Dependence analysis therefore runs on
        ``module init; while True: <entry body>`` so that reaching
        definitions flow around the loop back edge (StateAlyzer's
        packet-processing-loop assumption, §2.1).  Returns the looped
        block and the synthetic loop header's sid (to be discarded from
        slices).
        """
        from repro.lang.ir import EConst, SContinue, SWhile

        loop_sid = max((s.sid for s in iter_block(flat.block)), default=0) + 1
        # Per-packet `return` means "done with this packet, take the
        # next" — inside the analysis loop that is `continue`, so the
        # back edge carries state written on early-return paths too.
        body = _loopify(list(entry_part))
        header = SWhile(sid=loop_sid, line=0, cond=EConst(True), body=body)
        return list(module_part) + [header], loop_sid

    def output_criteria(self, flat: FlatView) -> List[SliceCriterion]:
        """Slicing criteria: one per packet-output call (Alg. 1 lines 1–4)."""
        out: List[SliceCriterion] = []
        for stmt in iter_block(flat.block):
            if any(
                not c.method and c.func == PKT_OUTPUT_FUNC for c in stmt_calls(stmt)
            ):
                out.append(SliceCriterion(stmt.sid, None))
        return out

    def state_criteria(
        self, flat: FlatView, ois_vars: Set[str], entry_part: Block
    ) -> List[SliceCriterion]:
        """Criteria at every oisVar assignment (Alg. 1 lines 6–9)."""
        out: List[SliceCriterion] = []
        for stmt in iter_block(entry_part):
            if stmt_defs(stmt) & ois_vars:
                out.append(SliceCriterion(stmt.sid, None))
        return out

    def build_symbolic_env(
        self,
        module_env: Dict[str, Any],
        categories: VarCategories,
        entry_part: Block,
        pkt_param: str,
    ) -> Dict[str, Any]:
        """Seed the symbolic environment (Algorithm 1's setup).

        Packet fields become free variables; output-impacting state
        becomes ``st.*`` variables / lazy symbolic dicts; configuration
        and everything else (log counters, structured data) keeps its
        concrete initial value, so the model covers the deployed
        configuration only.  With ``NFactorConfig.parametric`` the
        scalar cfgVars that branch conditions read become free
        ``cfg.*`` variables instead, and the model splits into
        per-config tables.
        """
        env: Dict[str, Any] = {k: deep_copy(v) for k, v in module_env.items()}

        if self.config.parametric:
            cond_vars: Set[str] = set()
            for stmt in iter_block(entry_part):
                if isinstance(stmt, (SIf, SWhile)):
                    cond_vars |= stmt_uses(stmt)
            for var in sorted(categories.cfg_vars & cond_vars):
                value = env.get(var)
                if isinstance(value, bool):
                    env[var] = SVar(f"cfg.{var}", 0, 1, boolean=True)
                elif isinstance(value, int):
                    # Widened to hold the deployed value (l2switch's
                    # 48-bit BROADCAST), so pinning it stays satisfiable.
                    lo, hi = min(0, value), max((1 << 32) - 1, value)
                    env[var] = SVar(f"cfg.{var}", lo, hi)

        for var in sorted(categories.ois_vars):
            value = env.get(var)
            if isinstance(value, dict):
                env[var] = SymDict(var)
            elif isinstance(value, bool):
                env[var] = SVar(f"st.{var}", 0, 1, boolean=True)
            elif isinstance(value, int):
                env[var] = SVar(f"st.{var}", 0, (1 << 32) - 1)
            # lists/tuples/strings stay concrete: symbolic containers of
            # unknown length would reintroduce the path explosion the
            # paper's loop-bounding discipline exists to avoid.

        env[pkt_param] = SymPacket.fresh("pkt")
        return env

    # -- the full pipeline -----------------------------------------------------

    def _prep_key(self) -> Optional[str]:
        """The cache key of the prepared analysis state (None = uncacheable)."""
        if self._frontend_key is None or not self.config.artifact_cache:
            return None
        return artifact_cache.artifact_key(
            "prep", (self._frontend_key, _prep_config_fingerprint(self.config))
        )

    def _prepare(self, timings: Dict[str, float]) -> "_Prep":
        """The shared pipeline front half (both entry points run this).

        Flatten, build the looped analysis view and its PDG, compute the
        packet slice, classify variables and seed the concrete/symbolic
        environments.  ``synthesize`` continues with the state slice and
        the sliced exploration; ``explore_original`` explores the
        unsliced entry directly.  The whole product is one cacheable
        artifact: a hit skips every phase in this method.
        """
        prep_key = self._prep_key()
        if prep_key is not None:
            cached = artifact_cache.get_store().get_object("prep", prep_key)
            if cached is not None:
                obs_metrics.gauge("pdg.nodes").set(len(cached.pdg.stmts))
                obs_metrics.gauge("pdg.edges").set(cached.pdg.edge_count())
                return cached
        with obs_trace.phase("flatten", timings):
            flat, module_part, entry_part = self.flatten()
        pkt_param = flat.entry_params[0] if flat.entry_params else "pkt"

        with obs_trace.phase("pdg", timings):
            looped, loop_sid = self.looped_view(flat, module_part, entry_part)
            pdg = build_pdg(looped, flat.entry_vars())
            obs_metrics.gauge("pdg.nodes").set(len(pdg.stmts))
            obs_metrics.gauge("pdg.edges").set(pdg.edge_count())
        slicer = StaticSlicer(pdg)

        with obs_trace.phase("slice", timings):
            pkt_slice = slicer.backward_many(self.output_criteria(flat))
            pkt_slice.discard(loop_sid)
        with obs_trace.phase("classify", timings):
            categories = classify_variables(flat, pkt_slice)

        # Concrete initial state (module init runs unsliced: state must
        # start exactly as the original program starts it), then the
        # symbolic environment over it.
        with obs_trace.phase("env", timings):
            interp = Interpreter()
            module_env = interp.run_block(list(module_part)).globals
            module_env.pop(pkt_param, None)
            sym_env = self.build_symbolic_env(
                module_env, categories, entry_part, pkt_param
            )

        prep = _Prep(
            flat=flat,
            module_part=module_part,
            entry_part=entry_part,
            pkt_param=pkt_param,
            loop_sid=loop_sid,
            pdg=pdg,
            slicer=slicer,
            pkt_slice=pkt_slice,
            categories=categories,
            module_env=module_env,
            sym_env=sym_env,
        )
        if prep_key is not None:
            artifact_cache.get_store().put_object("prep", prep_key, prep)
        return prep

    def synthesize(self) -> SynthesisResult:
        """Run the whole pipeline and return the synthesis result."""
        stats = SynthesisStats()
        timings = dict(self._phase_timings)  # parse/unfold/normalize

        with obs_trace.span("synthesize", nf=self.program.name):
            prep = self._prepare(timings)
            flat, entry_part = prep.flat, prep.entry_part
            categories, pkt_slice = prep.categories, prep.pkt_slice

            prep_key = self._prep_key()
            slices_key = (
                artifact_cache.artifact_key("slices", prep_key)
                if prep_key is not None
                else None
            )
            cached_slices = (
                artifact_cache.get_store().get_object("slices", slices_key)
                if slices_key is not None
                else None
            )
            if cached_slices is not None:
                state_slice, kept, sliced_block = cached_slices
            else:
                with obs_trace.phase("slice", timings):
                    state_slice = prep.slicer.backward_many(
                        self.state_criteria(flat, categories.ois_vars, entry_part)
                    )
                    state_slice.discard(prep.loop_sid)
                    union = pkt_slice | state_slice
                    # Jump augmentation needs the loop header "present" so jumps
                    # directly under it qualify; filtering drops it again.
                    sliced_block, kept = executable_slice(
                        flat.block, union | {prep.loop_sid}, prep.pdg
                    )
                    kept.discard(prep.loop_sid)
                if slices_key is not None:
                    artifact_cache.get_store().put_object(
                        "slices", slices_key, (state_slice, kept, sliced_block)
                    )
            stats.slicing_time_s = (
                timings.get("pdg", 0.0)
                + timings.get("slice", 0.0)
                + timings.get("classify", 0.0)
            )

            module_sids = flat.module_sids
            sliced_entry = [s for s in sliced_block if s.sid not in module_sids]

            engine = SymbolicEngine(self.config.engine)
            with obs_trace.phase("symbolic", timings):
                with Stopwatch() as se_sw:
                    paths = engine.explore(
                        sliced_entry, prep.sym_env, watched=categories.ois_vars
                    )
            stats.se_time_s = se_sw.elapsed
            # Via engine.stats (not engine.solver): frontier runs fold
            # the worker processes' solver and engine counters in there.
            stats.solver_checks = engine.stats.solver_checks
            stats.solver_cache_hits = engine.stats.solver_cache_hits
            stats.solver_cache_misses = engine.stats.solver_cache_misses
            stats.solver_unknowns = engine.stats.solver_unknowns
            stats.paths_truncated = engine.stats.paths_truncated
            stats.states_explored = engine.stats.states_explored
            stats.witness_hits = engine.stats.witness_hits

            stmts = flat.stmts()
            with obs_trace.phase("refactor", timings):
                model = build_model(
                    self.program.name,
                    paths,
                    stmts,
                    pkt_slice,
                    state_slice,
                    ois_vars=categories.ois_vars,
                )
            model.cfg_vars = set(categories.cfg_vars)
            model.pkt_vars = set(categories.pkt_vars)
            model.log_vars = set(categories.log_vars)

        stats.source_loc = count_source_loc(self.program.source)
        stats.ir_loc = len(list(iter_block(flat.block)))
        stats.slice_ir_loc = len(kept)
        stats.slice_loc = len(flat.source_lines(kept))
        path_lens = [
            len({stmts[sid].line for sid in p.executed if sid in stmts})
            for p in paths
            if p.status == "done"
        ]
        stats.path_loc_max = max(path_lens, default=0)
        stats.path_loc_avg = sum(path_lens) / len(path_lens) if path_lens else 0.0
        stats.n_paths = sum(1 for p in paths if p.status == "done")
        stats.n_entries = model.n_entries
        stats.phase_timings = timings
        registry = obs_metrics.active()
        if registry.enabled:
            stats.metrics = registry.snapshot()

        # Write-behind: persist freshly-solved constraint answers so the
        # next process starts warm (no-op unless persistence is active).
        _global_constraint_cache().flush()

        return SynthesisResult(
            model=model,
            program=self.program,
            flat=flat,
            pdg=prep.pdg,
            pkt_slice=pkt_slice,
            state_slice=state_slice,
            union_slice=kept,
            sliced_entry=sliced_entry,
            categories=categories,
            paths=paths,
            module_env=prep.module_env,
            sym_env=prep.sym_env,
            stats=stats,
            normalize_report=self.normalize_report,
            unfolded=self.unfolded,
        )

    def explore_original(
        self, engine_config: Optional[EngineConfig] = None
    ) -> Tuple[List[PathResult], "SymbolicEngine"]:
        """Symbolic execution of the *unsliced* entry code.

        The Table-2 baseline: same symbolic environment, no slicing.
        """
        prep = self._prepare({})
        engine = SymbolicEngine(engine_config or self.config.engine)
        paths = engine.explore(
            list(prep.entry_part), prep.sym_env, watched=prep.categories.ois_vars
        )
        return paths, engine


def _loopify(block: Block) -> Block:
    """Clone a block for the looped analysis view (sids preserved).

    Top-level ``return`` becomes ``continue``; loops introduced by
    inlining keep their jumps (their breaks/returns were already
    rewritten by the flattener).
    """
    from repro.lang.ir import SContinue, SIf, SReturn, SWhile

    out: Block = []
    for stmt in block:
        if isinstance(stmt, SReturn):
            out.append(SContinue(sid=stmt.sid, line=stmt.line))
        elif isinstance(stmt, SIf):
            out.append(
                SIf(
                    sid=stmt.sid,
                    line=stmt.line,
                    cond=stmt.cond,
                    then=_loopify(stmt.then),
                    orelse=_loopify(stmt.orelse),
                )
            )
        elif isinstance(stmt, SWhile):
            # Returns inside nested (inlined-wrapper) loops do not occur:
            # the flattener rewrote them.  Keep the loop as is.
            out.append(stmt)
        else:
            out.append(stmt)
    return out


def count_source_loc(source: str) -> int:
    """Non-empty, non-comment source lines (Table 2's LoC definition)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


def synthesize_model(
    source: str | Program,
    name: str = "<nf>",
    entry: Optional[str] = None,
    config: Optional[NFactorConfig] = None,
) -> SynthesisResult:
    """One-call synthesis: source/program in, :class:`SynthesisResult` out."""
    return NFactor(source, name=name, entry=entry, config=config).synthesize()


@dataclass
class CachedModel:
    """A synthesized model with cache provenance (the model-tier view).

    ``cached`` is True when the model was served whole from the
    artifact store's model tier — no parsing, slicing or symbolic
    execution ran, and ``result`` is None.  ``model_json`` is the
    canonical serialized form; on a hit it is byte-identical to what a
    fresh synthesis would serialize (asserted by the perf-cache bench
    and ``tests/test_cache.py``).  ``stats`` carries the originating
    run's numbers either way (path/entry counts are properties of the
    model, timings are the original run's).
    """

    name: str
    model: NFModel
    model_json: str
    stats: SynthesisStats
    cached: bool = False
    result: Optional[SynthesisResult] = None


def _model_key(
    source: str, name: str, entry: Optional[str], config: NFactorConfig
) -> str:
    frontend = artifact_cache.artifact_key(
        "frontend", artifact_cache.frontend_key_material(source, name, entry)
    )
    return artifact_cache.artifact_key(
        "model", (frontend, _full_config_fingerprint(config))
    )


def target_artifact_keys(
    source: str,
    name: str = "<nf>",
    entry: Optional[str] = None,
    config: Optional[NFactorConfig] = None,
) -> Dict[str, str]:
    """Every cache-tier key one synthesis target derives, by kind.

    The watch daemon uses this to know exactly which artifacts to push
    to serve shards before asking them to flip versions; the sim key
    matches :func:`repro.serve.jobs._sim_bundle`'s derivation, and the
    guards key is :func:`repro.model.compile.guard_key` of it.
    """
    from repro.model.compile import guard_key

    config = config or NFactorConfig()
    frontend = artifact_cache.artifact_key(
        "frontend", artifact_cache.frontend_key_material(source, name, entry)
    )
    prep = artifact_cache.artifact_key(
        "prep", (frontend, _prep_config_fingerprint(config))
    )
    model = artifact_cache.artifact_key(
        "model", (frontend, _full_config_fingerprint(config))
    )
    sim = artifact_cache.artifact_key("sim", (model,))
    return {
        "frontend": frontend,
        "prep": prep,
        "slices": artifact_cache.artifact_key("slices", prep),
        "model": model,
        "sim": sim,
        "guards": guard_key(sim),
    }


def synthesize_model_cached(
    source: str,
    name: str = "<nf>",
    entry: Optional[str] = None,
    config: Optional[NFactorConfig] = None,
    keep_result: bool = False,
) -> CachedModel:
    """Model-tier synthesis: the whole serialized model is one artifact.

    The fast path for consumers that only need the model and its stats
    (the ``synthesize`` CLI, ``repro batch``, benchmarks): when the NF
    source and configuration are unchanged, the synthesis is a single
    cache lookup.  On a miss the full pipeline runs (itself memoized
    per phase) and the result is stored for next time.  Callers that
    need the full :class:`SynthesisResult` on misses pass
    ``keep_result=True``; those that always need it should use
    :class:`NFactor` directly.
    """
    config = config or NFactorConfig()
    key: Optional[str] = None
    if config.artifact_cache:
        key = _model_key(source, name, entry, config)
        hit = artifact_cache.get_store().get_object("model", key)
        if hit is not None:
            model, model_json, stats = hit
            return CachedModel(
                name=name, model=model, model_json=model_json,
                stats=stats, cached=True,
            )
    result = NFactor(source, name=name, entry=entry, config=config).synthesize()
    model_json = model_to_json(result.model)
    if key is not None:
        artifact_cache.get_store().put_object(
            "model", key, (result.model, model_json, result.stats)
        )
    return CachedModel(
        name=name,
        model=result.model,
        model_json=model_json,
        stats=result.stats,
        cached=False,
        result=result if keep_result else None,
    )
