"""The symbolic executor.

Explores every execution path of a flat IR block (paper Algorithm 1,
line 10: ``FindExecPaths``).  Execution proceeds over the CFG: at each
branch whose condition is symbolic the state forks, feasibility of each
arm checked by the :class:`~repro.symbolic.solver.Solver`.  Loops are
bounded (paper §3.2: "NF programs typically will not contain
input-dependent loops, or they can be written or modified ... to ensure
loops are bounded"): a path that revisits a loop header with a symbolic
condition more than ``loop_bound`` times is truncated.

State dictionaries use lazy membership (SymNF-style "lazy
initialization"): ``key in table`` on an unwritten key forks into
assumed-present and assumed-absent worlds, which is exactly how the
paper's model distinguishes "first packet of a flow" from "existing
flow" entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cfg.builder import build_cfg
from repro.cfg.graph import CFG, ENTRY, EXIT
from repro.lang.ir import (
    Block,
    EAttr,
    EBin,
    EBool,
    ECall,
    ECmp,
    ECond,
    EConst,
    EDict,
    EList,
    EName,
    ESub,
    ETuple,
    EUn,
    Expr,
    LAttr,
    LName,
    LSub,
    LTuple,
    LValue,
    SAssign,
    SBreak,
    SContinue,
    SDelete,
    SExpr,
    SIf,
    SPass,
    SReturn,
    SWhile,
    Stmt,
    iter_block,
)
from repro.net.packet import Packet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.symbolic.expr import (
    SApp,
    SDictVal,
    SVar,
    Sym,
    SymDict,
    SymPacket,
    canon,
    eval_sym,
    is_concrete,
    mk_app,
    sym_vars,
)
from repro.symbolic.solver import (
    DEFAULT_MAX_SAMPLES,
    Solver,
    SolverContext,
    consistent_witness,
)
from repro.symbolic.state import PathResult, SymState
from repro.symbolic.strategies import VALID_STRATEGIES, Strategy, make_strategy
from repro.util.timer import Stopwatch

_BOOL_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "and", "or", "not", "member"})


class _PathError(Exception):
    """Aborts one path (unsupported construct or runtime error)."""


@dataclass
class EngineConfig:
    """Tunables for one exploration.

    ``loop_bound`` is the symbolic-branch bound per loop header (the
    paper's loop-bounding discipline); ``concrete_loop_bound`` guards
    concrete loops against runaway iteration; ``max_paths`` caps the
    total number of finished paths (exploration stops afterwards and
    the run is flagged as exhausted).

    ``solver_samples`` is the per-check randomized witness budget; its
    default is :data:`repro.symbolic.solver.DEFAULT_MAX_SAMPLES` — the
    single source of truth shared with a bare ``Solver()``.
    ``solver_cache`` toggles the process-wide constraint cache; results
    are byte-identical either way (caching only skips re-deriving a
    deterministic answer).
    """

    loop_bound: int = 6
    concrete_loop_bound: int = 4096
    max_paths: int = 4096
    max_steps_per_path: int = 100_000
    solver_seed: int = 0
    solver_samples: int = DEFAULT_MAX_SAMPLES
    solver_cache: bool = True
    keep_pruned: bool = False
    #: Exploration order: one of
    #: :data:`repro.symbolic.strategies.VALID_STRATEGIES`.
    strategy: str = "dfs"
    strategy_seed: int = 0
    #: Cold-path performance toggle (docs/internals.md §9).  It is
    #: behaviour-preserving: synthesized models are byte-identical with
    #: it on or off, so it does not participate in cache fingerprints.
    witness_shortcut: bool = True
    #: Worker processes for the "frontier" strategy; 1 = in-process
    #: (degenerates to dfs).  Ignored by the other strategies.
    parallel_paths: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} "
                f"(valid: {', '.join(VALID_STRATEGIES)})"
            )
        if self.parallel_paths < 1:
            raise ValueError("parallel_paths must be >= 1")


@dataclass
class ExploreStats:
    """Statistics of one exploration run."""

    paths_done: int = 0
    paths_pruned: int = 0
    paths_truncated: int = 0
    paths_error: int = 0
    forks: int = 0
    steps: int = 0
    solver_checks: int = 0
    solver_cache_hits: int = 0
    solver_cache_misses: int = 0
    #: Checks answered ``unknown`` (kept as feasible: completeness over
    #: soundness), including constraint-cache hits on such answers.
    solver_unknowns: int = 0
    elapsed_s: float = 0.0
    exhausted: bool = False
    #: States executed to completion (finishing done, pruned or error).
    states_explored: int = 0
    #: Branch arms decided by witness propagation (no solver call).
    witness_hits: int = 0

    @property
    def states_total(self) -> int:
        """Conservation check: every state is explored or truncated —
        pruning can never silently drop one."""
        return self.states_explored + self.paths_truncated


class SymbolicEngine:
    """Symbolically executes flat IR blocks."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.solver = Solver(
            seed=self.config.solver_seed,
            max_samples=self.config.solver_samples,
            cache=self.config.solver_cache,
        )
        self.stats = ExploreStats()

    # -- public -------------------------------------------------------------

    def explore(
        self,
        block: Block,
        init_env: Optional[Dict[str, Any]] = None,
        watched: Optional[Set[str]] = None,
    ) -> List[PathResult]:
        """Enumerate execution paths of ``block``.

        ``init_env`` seeds the environment (symbolic packets, symbolic
        state variables, concrete configuration).  ``watched`` names the
        variables whose writes should be recorded per path (the
        output-impacting state variables).

        Finished paths are numbered and ordered *canonically* (by their
        branch-decision sequence, True before False), so every strategy
        — and the parallel frontier merge — yields byte-identical
        results on a complete exploration.
        """
        self.stats = ExploreStats()
        watched = watched or set()
        cfg = build_cfg(block)
        stmts = {s.sid: s for s in iter_block(block)}

        entry_succs = cfg.succs(ENTRY, virtual=False)
        first = entry_succs[0] if entry_succs else EXIT
        initial = SymState(pc=first, env=dict(init_env or {}))
        worker_solver = {"checks": 0, "hits": 0, "misses": 0, "unknowns": 0}

        span = obs_trace.span(
            "se.explore", stmts=len(stmts), strategy=self.config.strategy
        )
        with span, Stopwatch() as sw:
            finished: List[SymState] = []
            if self.config.strategy == "frontier" and self.config.parallel_paths > 1:
                self._explore_frontier(
                    block, initial, cfg, stmts, watched, finished, worker_solver
                )
            else:
                stack = make_strategy(self.config.strategy, self.config.strategy_seed)
                stack.push(initial)
                self._drive(stack, cfg, stmts, watched, finished)
            results = self._finalize(finished)
            span.set(
                paths_done=self.stats.paths_done,
                paths_pruned=self.stats.paths_pruned,
                paths_truncated=self.stats.paths_truncated,
                paths_error=self.stats.paths_error,
                forks=self.stats.forks,
                steps=self.stats.steps,
                witness_hits=self.stats.witness_hits,
                exhausted=self.stats.exhausted,
            )
        self.stats.elapsed_s = sw.elapsed
        self.stats.solver_checks = self.solver.checks + worker_solver["checks"]
        self.stats.solver_cache_hits = self.solver.cache_hits + worker_solver["hits"]
        self.stats.solver_cache_misses = (
            self.solver.cache_misses + worker_solver["misses"]
        )
        self.stats.solver_unknowns = (
            self.solver.unknown_hits + worker_solver["unknowns"]
        )
        obs_metrics.counter("se.steps").inc(self.stats.steps)
        return results

    def explore_seeds(
        self,
        block: Block,
        seeds: Sequence[SymState],
        watched: Optional[Set[str]] = None,
    ) -> Tuple[List[SymState], ExploreStats]:
        """Depth-first explore from pre-forked seed states (frontier
        workers).  Returns raw finished states — the parent performs the
        canonical merge/numbering across all partitions."""
        self.stats = ExploreStats()
        watched = watched or set()
        cfg = build_cfg(block)
        stmts = {s.sid: s for s in iter_block(block)}
        finished: List[SymState] = []
        stack = make_strategy("dfs", self.config.strategy_seed)
        for seed in seeds:
            stack.push(seed)
        self._drive(stack, cfg, stmts, watched, finished)
        self.stats.solver_checks = self.solver.checks
        self.stats.solver_cache_hits = self.solver.cache_hits
        self.stats.solver_cache_misses = self.solver.cache_misses
        self.stats.solver_unknowns = self.solver.unknown_hits
        return finished, self.stats

    # -- drive loop ----------------------------------------------------------

    def _drive(
        self,
        stack: Strategy,
        cfg: CFG,
        stmts: Dict[int, Stmt],
        watched: Set[str],
        finished: List[SymState],
        stop_at: Optional[int] = None,
    ) -> None:
        """Pop-and-run until the stack drains (or ``stop_at`` pending
        states accumulate — the frontier hand-off point)."""
        while stack:
            if self.stats.paths_done >= self.config.max_paths:
                self.stats.exhausted = True
                break
            if stop_at is not None and len(stack) >= stop_at:
                break  # hand the pending frontier to the process pool
            state = stack.pop()
            obs_metrics.counter("se.states_popped").inc()
            self._finish_state(
                self._run_state(state, cfg, stmts, watched, stack), finished
            )

    def _finish_state(self, state: SymState, finished: List[SymState]) -> None:
        """Account for one finished path."""
        finished.append(state)
        if state.status == "done":
            self.stats.paths_done += 1
            obs_metrics.counter("se.paths_done").inc()
        elif state.status == "truncated":
            self.stats.paths_truncated += 1
            obs_metrics.counter("se.paths_truncated").inc()
        elif state.status == "error":
            self.stats.paths_error += 1
            obs_metrics.counter("se.paths_error").inc()
        else:
            self.stats.paths_pruned += 1
            obs_metrics.counter("se.paths_infeasible").inc()
        if state.status != "truncated":
            self.stats.states_explored += 1

    def _finalize(self, finished: List[SymState]) -> List[PathResult]:
        """Canonically order, number, and filter finished states.

        The key is the branch-decision sequence (True sorts before
        False): depth-first finish order already coincides with it, so
        the sort is the identity for dfs, while bfs/random/frontier
        converge to the same byte stream.  Numbering covers *every*
        finished state (pruned/truncated included) to preserve the
        historical path-id sequence.
        """

        def key(state: SymState) -> Tuple[Tuple[int, int], ...]:
            return tuple((sid, 0 if oc else 1) for sid, oc in state.branches)

        ordered = sorted(finished, key=key)
        # Budget cut: a sequential run stops right after the path that
        # reaches ``max_paths`` finishes, so a frontier merge (whose
        # workers each ran with the full budget) must discard everything
        # past the max-th done path in canonical order.
        done_seen = 0
        for index, state in enumerate(ordered):
            if state.status == "done":
                done_seen += 1
                if done_seen >= self.config.max_paths:
                    dropped = ordered[index + 1:]
                    if dropped:
                        ordered = ordered[: index + 1]
                        self.stats.exhausted = True
                        self.stats.paths_done = done_seen
                        self.stats.paths_pruned = sum(
                            1 for s in ordered if s.status == "pruned"
                        )
                        self.stats.paths_truncated = sum(
                            1 for s in ordered if s.status == "truncated"
                        )
                        self.stats.paths_error = sum(
                            1 for s in ordered if s.status == "error"
                        )
                    break

        results: List[PathResult] = []
        for path_id, state in enumerate(ordered, 1):
            if state.status != "done" and not self.config.keep_pruned:
                continue
            if state.status == "pruned":
                continue  # infeasible states never become results
            results.append(
                PathResult(
                    path_id=path_id,
                    status=state.status,
                    constraints=list(state.constraints),
                    executed=list(state.executed),
                    branches=list(state.branches),
                    sent=list(state.sent),
                    state_writes=list(state.state_writes),
                    env=state.env,
                    note=state.note,
                )
            )
        return results

    # -- frontier parallelism -------------------------------------------------

    def _explore_frontier(
        self,
        block: Block,
        initial: SymState,
        cfg: CFG,
        stmts: Dict[int, Stmt],
        watched: Set[str],
        finished: List[SymState],
        worker_solver: Dict[str, int],
    ) -> None:
        """Phase A: expand the branch frontier in-process until enough
        independent states exist; phase B: partition them across a
        process pool and merge the workers' finished states.  The
        canonical ordering in :meth:`_finalize` makes the merge
        deterministic and byte-identical to sequential DFS.

        Phase A runs *breadth*-first: a DFS stack dives into one subtree
        and rarely holds more than a handful of pending siblings, so it
        may drain the whole program without ever reaching the hand-off
        width.  BFS widens the frontier level by level instead."""
        from repro.parallel import explore_frontier_parts

        jobs = self.config.parallel_paths
        stack = make_strategy("bfs", self.config.strategy_seed)
        stack.push(initial)
        self._drive(stack, cfg, stmts, watched, finished, stop_at=jobs * 4)
        pending = stack.drain()
        if not pending:
            return
        if self.stats.exhausted:
            return
        parts = [pending[i::jobs] for i in range(jobs)]
        parts = [part for part in parts if part]
        outcomes = explore_frontier_parts(block, parts, watched, self.config)
        for states, stats in outcomes:
            finished.extend(states)
            self.stats.paths_done += stats["paths_done"]
            self.stats.paths_pruned += stats["paths_pruned"]
            self.stats.paths_truncated += stats["paths_truncated"]
            self.stats.paths_error += stats["paths_error"]
            self.stats.forks += stats["forks"]
            self.stats.steps += stats["steps"]
            self.stats.states_explored += stats["states_explored"]
            self.stats.witness_hits += stats["witness_hits"]
            self.stats.exhausted = self.stats.exhausted or stats["exhausted"]
            worker_solver["checks"] += stats["solver_checks"]
            worker_solver["hits"] += stats["solver_cache_hits"]
            worker_solver["misses"] += stats["solver_cache_misses"]
            worker_solver["unknowns"] += stats["solver_unknowns"]

    # -- per-state loop -------------------------------------------------------

    def _run_state(
        self,
        state: SymState,
        cfg: CFG,
        stmts: Dict[int, Stmt],
        watched: Set[str],
        stack: "Strategy",
    ) -> SymState:
        """Advance ``state`` until it finishes.

        Forked siblings are pushed onto ``stack``; ``state`` is returned
        when it reaches EXIT (or is pruned, truncated or fails — then
        with a non-live status).
        """
        while True:
            if state.pc == EXIT:
                state.status = "done"
                return state
            stmt = stmts.get(state.pc)
            if stmt is None:
                state.status = "error"
                state.note = f"pc {state.pc} has no statement"
                return state

            state.steps += 1
            self.stats.steps += 1
            if state.steps > self.config.max_steps_per_path:
                state.status = "truncated"
                state.note = "per-path step budget exceeded"
                return state

            if isinstance(stmt, (SIf, SWhile)):
                follow = self._branch(state, stmt, cfg, stack)
                if follow is None:
                    return state  # pruned/truncated inside _branch
                state.pc = follow
                continue

            state.executed.append(stmt.sid)
            try:
                self._exec_straight(state, stmt, watched)
            except _PathError as exc:
                state.status = "error"
                state.note = str(exc)
                return state
            nxt = self._next_node(cfg, state.pc)
            if nxt is None:
                state.status = "error"
                state.note = f"no successor for sid {state.pc}"
                return state
            state.pc = nxt

    def _next_node(self, cfg: CFG, node: int) -> Optional[int]:
        succs = cfg.succs(node, virtual=False)
        if len(succs) != 1:
            return None
        return succs[0]

    def _branch_target(self, cfg: CFG, node: int, outcome: bool) -> Optional[int]:
        for edge in cfg.succ_edges(node, virtual=False):
            if edge.label is outcome:
                return edge.dst
        return None

    # -- branching ---------------------------------------------------------------

    def _branch(
        self,
        state: SymState,
        stmt: Stmt,
        cfg: CFG,
        stack: "Strategy",
    ) -> Optional[int]:
        """Handle a branch node; returns the pc to follow, or None."""
        assert isinstance(stmt, (SIf, SWhile))
        is_loop = isinstance(stmt, SWhile)
        if is_loop:
            count = state.loop_counts.get(stmt.sid, 0) + 1
            state.loop_counts[stmt.sid] = count

        try:
            cond = self._truth(self.eval_expr(stmt.cond, state))
        except _PathError as exc:
            state.status = "error"
            state.note = str(exc)
            return None

        state.executed.append(stmt.sid)

        if isinstance(cond, bool):
            if is_loop and cond and state.loop_counts[stmt.sid] > self.config.concrete_loop_bound:
                state.status = "truncated"
                state.note = f"concrete loop bound exceeded at sid {stmt.sid}"
                return None
            state.branches.append((stmt.sid, cond))
            target = self._branch_target(cfg, stmt.sid, cond)
            if target is None:
                state.status = "error"
                state.note = f"missing {cond}-edge at sid {stmt.sid}"
                return None
            return target

        # Symbolic condition.  Feasibility checks extend the state's
        # incremental solver context (propagated knowledge of the
        # constraint prefix) with one arm each, instead of
        # re-propagating the whole prefix per check; the arm's context
        # is installed on whichever state commits that arm.
        ctx = state.solver_ctx
        if ctx is None:
            ctx = state.solver_ctx = self.solver.context()

        # Witness shortcut: the state carries a concrete assignment
        # known to satisfy its whole path condition.  Whichever arm the
        # witness satisfies is feasible *for free* (prefix ∧ arm is sat
        # by that very witness); only the other arm needs the solver.
        # Feasibility conclusions are witness-independent — a truly-sat
        # arm can never be refuted by the (sound-unsat) solver — so the
        # shortcut cannot change which paths exist, only how many
        # checks it takes to find them.
        # The witness's verdict on ``cond`` counts only if the witness,
        # with eval_sym's defaults for the leaves ``cond`` adds, is
        # functionally consistent — one some dict state can produce.
        wit = state.witness if self.config.witness_shortcut else None
        wtruth: Optional[bool] = None
        if wit is not None:
            try:
                wtruth = bool(eval_sym(cond, wit))
            except Exception:
                wtruth = None
            if wtruth is not None and not consistent_witness(
                sym_vars([cond, *state.constraints]), wit
            ):
                wtruth = None

        if is_loop and state.loop_counts[stmt.sid] > self.config.loop_bound:
            # Force the exit arm if feasible; otherwise truncate.
            exit_cond = mk_app("not", cond)
            if wtruth is False:
                self.stats.witness_hits += 1
                obs_metrics.counter("se.witness_hits").inc()
                self._take(state, stmt, cond, False, cfg)
                return self._branch_target(cfg, stmt.sid, False)
            result, exit_ctx = self.solver.check_extended(
                state.constraints, ctx, exit_cond
            )
            if result.feasible:
                if self.config.witness_shortcut:
                    state.witness = (
                        result.assignment if result.status == "sat" else None
                    )
                self._take(state, stmt, cond, False, cfg)
                state.solver_ctx = exit_ctx
                return self._branch_target(cfg, stmt.sid, False)
            state.status = "truncated"
            state.note = f"symbolic loop bound exceeded at sid {stmt.sid}"
            return None

        feasible: List[bool] = []
        arm_ctxs: Dict[bool, SolverContext] = {}
        arm_wits: Dict[bool, Optional[Dict[str, Any]]] = {}
        for outcome in (True, False):
            arm = cond if outcome else mk_app("not", cond)
            if isinstance(arm, bool):
                if arm:
                    feasible.append(outcome)
                    arm_wits[outcome] = wit
                continue
            if wtruth is not None and wtruth == outcome:
                self.stats.witness_hits += 1
                obs_metrics.counter("se.witness_hits").inc()
                feasible.append(outcome)
                arm_wits[outcome] = wit
                continue
            result, arm_ctx = self.solver.check_extended(state.constraints, ctx, arm)
            if result.feasible:
                feasible.append(outcome)
                arm_ctxs[outcome] = arm_ctx
                arm_wits[outcome] = (
                    result.assignment if result.status == "sat" else None
                )

        if not feasible:
            state.status = "pruned"
            state.note = f"both arms infeasible at sid {stmt.sid}"
            return None

        if len(feasible) == 2:
            self.stats.forks += 1
            obs_metrics.counter("se.paths_forked").inc()
            other = state.fork()
            self._take(other, stmt, cond, False, cfg)
            other.solver_ctx = arm_ctxs.get(False, other.solver_ctx)
            if self.config.witness_shortcut:
                other.witness = arm_wits.get(False)
            target_false = self._branch_target(cfg, stmt.sid, False)
            if target_false is not None:
                other.pc = target_false
                stack.push(other)
            outcome = True
        else:
            outcome = feasible[0]

        self._take(state, stmt, cond, outcome, cfg)
        if outcome in arm_ctxs:
            state.solver_ctx = arm_ctxs[outcome]
        if self.config.witness_shortcut:
            state.witness = arm_wits.get(outcome)
        return self._branch_target(cfg, stmt.sid, outcome)

    def _take(
        self, state: SymState, stmt: Stmt, cond: Any, outcome: bool, cfg: CFG
    ) -> None:
        """Commit one branch outcome to ``state``."""
        arm = cond if outcome else mk_app("not", cond)
        if not isinstance(arm, bool):
            state.constraints.append(arm)
        state.branches.append((stmt.sid, outcome))
        self._apply_membership(state, cond, outcome)

    def _witness_absorb(self, state: SymState, atom: Any) -> None:
        """Keep the witness invariant across an implicitly-appended
        constraint: extend the assignment if the whole path condition
        still holds and the result stays functionally consistent, drop
        the witness otherwise."""
        wit = state.witness
        if wit is None or not self.config.witness_shortcut:
            return
        try:
            if not bool(eval_sym(atom, wit)):
                wit = dict(wit)
                wit[canon(atom)] = True
                if not all(bool(eval_sym(c, wit)) for c in state.constraints):
                    wit = None
            if wit is not None and consistent_witness(sym_vars(state.constraints), wit):
                state.witness = wit
                return
        except Exception:
            pass
        state.witness = None

    def _apply_membership(self, state: SymState, cond: Any, outcome: bool) -> None:
        """Record dict-membership assumptions decided by this branch."""
        if isinstance(cond, SApp) and cond.op == "not":
            self._apply_membership(state, cond.args[0], not outcome)
            return
        if isinstance(cond, SApp) and cond.op == "member":
            dict_name, key = cond.args
            holder = state.env.get(dict_name)
            if isinstance(holder, SymDict):
                holder.assumed[canon(key)] = outcome

    # -- straight-line execution ----------------------------------------------

    def _exec_straight(self, state: SymState, stmt: Stmt, watched: Set[str]) -> None:
        if isinstance(stmt, SAssign):
            value = self.eval_expr(stmt.value, state)
            if stmt.aug is not None:
                old = self._load_lvalue(stmt.targets[0], state)
                value = self._binop(stmt.aug, old, value)
            for target in stmt.targets:
                self._store_lvalue(target, value, state, stmt.sid, watched)
            return
        if isinstance(stmt, SExpr):
            self.eval_expr(stmt.value, state)
            from repro.lang.ir import call_mutated_names

            for var in call_mutated_names(stmt.value) & watched:
                state.state_writes.append((stmt.sid, var))
            return
        if isinstance(stmt, (SReturn, SBreak, SContinue, SPass)):
            return
        if isinstance(stmt, SDelete):
            assert stmt.target is not None
            base = self._load_name(stmt.target.base, state)
            key = self.eval_expr(stmt.target.index, state)
            if isinstance(base, SymDict):
                base.delete(key)
                if stmt.target.base in watched:
                    state.state_writes.append((stmt.sid, stmt.target.base))
                return
            if isinstance(base, dict) and is_concrete(key):
                base.pop(self._dict_key(key), None)
                return
            raise _PathError(f"unsupported delete target at sid {stmt.sid}")
        raise _PathError(f"cannot execute {type(stmt).__name__}")

    # -- l-values -----------------------------------------------------------------

    def _load_name(self, name: str, state: SymState) -> Any:
        if name not in state.env:
            raise _PathError(f"name {name!r} is not defined")
        return state.env[name]

    def _load_lvalue(self, target: LValue, state: SymState) -> Any:
        if isinstance(target, LName):
            return self._load_name(target.id, state)
        if isinstance(target, LSub):
            base = self._load_name(target.base, state)
            index = self.eval_expr(target.index, state)
            return self._subscript(base, index, state)
        if isinstance(target, LAttr):
            base = self._load_name(target.base, state)
            return self._attr_get(base, target.attr)
        raise _PathError("cannot read this assignment target")

    def _store_lvalue(
        self, target: LValue, value: Any, state: SymState, sid: int, watched: Set[str]
    ) -> None:
        if isinstance(target, LName):
            state.env[target.id] = value
            if target.id in watched:
                state.state_writes.append((sid, target.id))
            return
        if isinstance(target, LSub):
            base = self._load_name(target.base, state)
            index = self.eval_expr(target.index, state)
            if isinstance(base, SymDict):
                base.store(index, value)
            elif isinstance(base, dict):
                if not is_concrete(index):
                    raise _PathError(
                        f"symbolic key write into concrete dict {target.base!r}"
                    )
                base[self._dict_key(index)] = value
            elif isinstance(base, list):
                if not isinstance(index, int):
                    raise _PathError("symbolic index write into list")
                try:
                    base[index] = value
                except IndexError:
                    raise _PathError("list index out of range") from None
            else:
                raise _PathError(f"cannot subscript-store into {type(base).__name__}")
            if target.base in watched:
                state.state_writes.append((sid, target.base))
            return
        if isinstance(target, LAttr):
            base = self._load_name(target.base, state)
            if isinstance(base, SymPacket):
                try:
                    base.set(target.attr, value)
                except KeyError as exc:
                    raise _PathError(str(exc)) from None
            elif isinstance(base, Packet):
                if not is_concrete(value):
                    raise _PathError("symbolic write into concrete packet")
                setattr(base, target.attr, value)
            else:
                raise _PathError(f"cannot set attribute on {type(base).__name__}")
            if target.base in watched:
                state.state_writes.append((sid, target.base))
            return
        if isinstance(target, LTuple):
            items = self._unpack(value, len(target.elts))
            for sub, item in zip(target.elts, items):
                self._store_lvalue(sub, item, state, sid, watched)
            return
        raise _PathError("cannot store to this target")

    def _unpack(self, value: Any, arity: int) -> List[Any]:
        if isinstance(value, (tuple, list)):
            if len(value) != arity:
                raise _PathError(
                    f"unpack mismatch: {arity} targets, {len(value)} values"
                )
            return list(value)
        if isinstance(value, Sym):
            return [mk_app("getitem", value, i) for i in range(arity)]
        raise _PathError(f"cannot unpack {type(value).__name__}")

    # -- expression evaluation -------------------------------------------------

    def eval_expr(self, expr: Expr, state: SymState) -> Any:
        if isinstance(expr, EConst):
            return expr.value
        if isinstance(expr, EName):
            return self._load_name(expr.id, state)
        if isinstance(expr, ETuple):
            return tuple(self.eval_expr(e, state) for e in expr.elts)
        if isinstance(expr, EList):
            return [self.eval_expr(e, state) for e in expr.elts]
        if isinstance(expr, EDict):
            out: Dict[Any, Any] = {}
            for k, v in expr.items:
                key = self.eval_expr(k, state)
                if not is_concrete(key):
                    raise _PathError("symbolic key in dict literal")
                out[self._dict_key(key)] = self.eval_expr(v, state)
            return out
        if isinstance(expr, EBin):
            return self._binop(
                expr.op,
                self.eval_expr(expr.left, state),
                self.eval_expr(expr.right, state),
            )
        if isinstance(expr, EUn):
            operand = self.eval_expr(expr.operand, state)
            if expr.op == "not":
                return mk_app("not", self._truth(operand))
            if expr.op == "-":
                if is_concrete(operand):
                    return -operand
                return mk_app("-", 0, operand)
            if expr.op == "+":
                return operand
            if expr.op == "~":
                if is_concrete(operand):
                    return ~operand
                return mk_app("-", mk_app("-", 0, operand), 1)
            raise _PathError(f"unknown unary {expr.op}")
        if isinstance(expr, ECmp):
            return self._compare(
                expr.op,
                self.eval_expr(expr.left, state),
                self.eval_expr(expr.right, state),
                state,
            )
        if isinstance(expr, EBool):
            return self._boolop(expr, state)
        if isinstance(expr, ECall):
            return self._call(expr, state)
        if isinstance(expr, ESub):
            base = self.eval_expr(expr.base, state)
            index = self.eval_expr(expr.index, state)
            return self._subscript(base, index, state)
        if isinstance(expr, EAttr):
            base = self.eval_expr(expr.base, state)
            return self._attr_get(base, expr.attr)
        if isinstance(expr, ECond):
            test = self._truth(self.eval_expr(expr.test, state))
            if isinstance(test, bool):
                return self.eval_expr(expr.body if test else expr.orelse, state)
            return mk_app(
                "cond",
                test,
                self.eval_expr(expr.body, state),
                self.eval_expr(expr.orelse, state),
            )
        raise _PathError(f"cannot evaluate {type(expr).__name__}")

    # -- operator helpers ------------------------------------------------------

    def _binop(self, op: str, left: Any, right: Any) -> Any:
        if op == "+" and isinstance(left, (tuple, list)) and isinstance(right, (tuple, list)):
            if isinstance(left, tuple):
                return tuple(left) + tuple(right)
            return list(left) + list(right)
        if is_concrete(left) and is_concrete(right):
            try:
                return mk_app(op, left, right)
            except (TypeError, ZeroDivisionError, ValueError) as exc:
                raise _PathError(f"operator {op} failed: {exc}") from None
        return mk_app(op, left, right)

    def _compare(self, op: str, left: Any, right: Any, state: SymState) -> Any:
        if op in ("in", "notin"):
            result = self._membership(left, right, state)
            return mk_app("not", result) if op == "notin" else result
        if op in ("is", "isnot"):
            if is_concrete(left) and is_concrete(right):
                return (left is right) if op == "is" else (left is not right)
            raise _PathError("`is` on symbolic values")
        if op in ("==", "!="):
            eq = self._equality(left, right)
            return mk_app("not", eq) if op == "!=" else eq
        if is_concrete(left) and is_concrete(right):
            try:
                return mk_app(op, left, right)
            except TypeError as exc:
                raise _PathError(f"comparison {op} failed: {exc}") from None
        return mk_app(op, left, right)

    def _equality(self, left: Any, right: Any) -> Any:
        lt = isinstance(left, (tuple, list))
        rt = isinstance(right, (tuple, list))
        if lt and rt:
            if len(left) != len(right):
                return False
            parts = [self._equality(a, b) for a, b in zip(left, right)]
            return mk_app("and", *parts)
        if lt != rt and (is_concrete(left) and is_concrete(right)):
            return left == right
        if lt != rt:
            # structured vs opaque symbolic: compare componentwise
            seq, other = (left, right) if lt else (right, left)
            if isinstance(other, Sym):
                parts = [
                    self._equality(seq[i], mk_app("getitem", other, i))
                    for i in range(len(seq))
                ]
                return mk_app("and", *parts)
            return False
        return mk_app("==", left, right)

    def _membership(self, needle: Any, haystack: Any, state: SymState) -> Any:
        if isinstance(haystack, SymDict):
            hit = haystack.written_value(needle)
            if hit is not None:
                return True
            # The probe key may *alias* a key written on this path even
            # though the expressions differ syntactically (e.g. a frame
            # with eth_dst == eth_src probing a table just filled under
            # eth_src).  Membership is the disjunction of equality with
            # each written key and pre-state membership.
            alias_parts = [
                self._equality(needle, wk)
                for wk, _ in _newest_entries(haystack)
            ]
            key_c = canon(needle)
            if key_c in haystack.assumed:
                pre: Any = haystack.assumed[key_c]
            elif key_c in haystack.deleted or haystack.cleared:
                pre = False
            else:
                pre = SApp("member", (haystack.name, _freeze(needle)))
            if alias_parts:
                return mk_app("or", *alias_parts, pre)
            return pre
        if isinstance(haystack, dict):
            if is_concrete(needle):
                return self._dict_key(needle) in haystack
            parts = [self._equality(needle, k) for k in haystack.keys()]
            return mk_app("or", *parts) if parts else False
        if isinstance(haystack, (tuple, list)):
            if is_concrete(needle) and all(is_concrete(v) for v in haystack):
                return needle in list(haystack)
            parts = [self._equality(needle, v) for v in haystack]
            return mk_app("or", *parts) if parts else False
        raise _PathError(f"membership test on {type(haystack).__name__}")

    def _boolop(self, expr: EBool, state: SymState) -> Any:
        parts: List[Any] = []
        for sub in expr.values:
            value = self._truth(self.eval_expr(sub, state))
            if isinstance(value, bool):
                if expr.op == "and" and not value:
                    return False
                if expr.op == "or" and value:
                    return True
                continue
            parts.append(value)
        if not parts:
            return expr.op == "and"
        return mk_app(expr.op, *parts)

    def _truth(self, value: Any) -> Any:
        """Coerce a value into a boolean (symbolic if necessary)."""
        if isinstance(value, bool):
            return value
        if is_concrete(value):
            return bool(value)
        if isinstance(value, SVar) and value.boolean:
            return value
        if isinstance(value, SApp) and value.op in _BOOL_OPS:
            return value
        return mk_app("!=", value, 0)

    # -- subscripts / attributes -----------------------------------------------

    def _subscript(self, base: Any, index: Any, state: SymState) -> Any:
        if isinstance(base, SymDict):
            hit = base.written_value(index)
            if hit is not None:
                return hit[1]
            key_c = canon(index)
            fallback_ok = True
            assumed = base.assumed.get(key_c)
            if assumed is False or key_c in base.deleted or base.cleared:
                fallback_ok = False
            aliases = _newest_entries(base)
            if not aliases:
                if not fallback_ok:
                    raise _PathError(
                        f"read of key assumed absent from {base.name!r}"
                    )
                if assumed is None:
                    # Implicit assume-present: record it so later
                    # membership tests on the same key agree, and
                    # constrain the path.
                    base.assumed[key_c] = True
                    atom = SApp("member", (base.name, _freeze(index)))
                    state.constraints.append(atom)
                    self._witness_absorb(state, atom)
                return SDictVal(base.name, key_c, key=_freeze(index))
            # Written entries with syntactically different keys may alias
            # the probe: the read is a conditional chain, newest first.
            if fallback_ok:
                result: Any = SDictVal(base.name, key_c, key=_freeze(index))
            else:
                # Pre-state read is impossible; any concrete value is
                # unreachable unless one of the aliases matches.
                result = 0
            for wk, wv in reversed(aliases):  # oldest first → newest wins
                result = mk_app(
                    "cond", self._equality(index, wk), _freeze(wv), result
                )
            return result
        if isinstance(base, dict):
            if is_concrete(index):
                key = self._dict_key(index)
                if key not in base:
                    raise _PathError(f"KeyError: {key!r}")
                return base[key]
            raise _PathError("symbolic key into concrete dict")
        if isinstance(base, (tuple, list)):
            if isinstance(index, int):
                try:
                    return base[index]
                except IndexError:
                    raise _PathError("sequence index out of range") from None
            return mk_app("getitem", _freeze(tuple(base)), index)
        if isinstance(base, SDictVal):
            if isinstance(index, int):
                return SDictVal(
                    base.dict_name, base.key_canon, base.path + (index,), key=base.key
                )
            return mk_app("getitem", base, index)
        if isinstance(base, Sym):
            return mk_app("getitem", base, index)
        raise _PathError(f"cannot subscript {type(base).__name__}")

    def _attr_get(self, base: Any, attr: str) -> Any:
        if isinstance(base, SymPacket):
            try:
                return base.get(attr)
            except KeyError as exc:
                raise _PathError(str(exc)) from None
        if isinstance(base, Packet):
            try:
                return getattr(base, attr)
            except AttributeError as exc:
                raise _PathError(str(exc)) from None
        raise _PathError(f"cannot read attribute of {type(base).__name__}")

    # -- calls -------------------------------------------------------------------

    def _call(self, expr: ECall, state: SymState) -> Any:
        name = expr.func
        if expr.method:
            receiver = self.eval_expr(expr.args[0], state)
            args = [self.eval_expr(a, state) for a in expr.args[1:]]
            return self._method(name, receiver, args)

        args = [self.eval_expr(a, state) for a in expr.args]
        if name == "send_packet":
            pkt = args[0]
            port = args[1] if len(args) > 1 else None
            if isinstance(pkt, SymPacket):
                state.sent.append((pkt.snapshot(), port))
            elif isinstance(pkt, Packet):
                state.sent.append((pkt.to_dict(), port))
            else:
                raise _PathError("send_packet() argument is not a packet")
            return None
        if name == "recv_packet":
            return SymPacket.fresh(f"pkt{len(state.executed)}")
        if name == "len":
            (arg,) = args
            if isinstance(arg, (tuple, list, dict, str)):
                return len(arg)
            if isinstance(arg, SymDict):
                if arg.cleared:
                    # Conservative lower bound: writes since the clear.
                    return len(arg.entries)
                return mk_app("+", SApp("dictlen", (arg.name,)), len(arg.entries))
            return mk_app("len", arg)
        if name == "hash":
            return mk_app("hash", _freeze(args[0]))
        if name in ("abs", "min", "max"):
            if all(is_concrete(a) for a in args):
                return {"abs": abs, "min": min, "max": max}[name](*args)
            return mk_app(name, *args)
        if name == "int":
            (arg,) = args
            if is_concrete(arg):
                return int(arg)
            return arg
        if name == "bool":
            return self._truth(args[0])
        if name == "range":
            if all(isinstance(a, int) for a in args):
                return list(range(*args))
            raise _PathError("range() over symbolic bounds")
        if name in ("tuple", "list"):
            (arg,) = args
            if isinstance(arg, (tuple, list)):
                return tuple(arg) if name == "tuple" else list(arg)
            raise _PathError(f"{name}() of non-sequence")
        if name == "sum":
            (arg,) = args
            if isinstance(arg, (tuple, list)):
                total: Any = 0
                for v in arg:
                    total = self._binop("+", total, v)
                return total
            raise _PathError("sum() of non-sequence")
        if name == "sorted":
            (arg,) = args
            if isinstance(arg, (tuple, list)) and all(is_concrete(v) for v in arg):
                return sorted(arg)
            raise _PathError("sorted() of symbolic sequence")
        raise _PathError(f"unknown function {name!r} (user calls must be inlined)")

    def _method(self, name: str, receiver: Any, args: List[Any]) -> Any:
        if name == "append":
            if isinstance(receiver, list):
                receiver.append(args[0])
                return None
            raise _PathError("append() on non-list")
        if name == "get":
            if isinstance(receiver, dict) and is_concrete(args[0]):
                return receiver.get(self._dict_key(args[0]), *args[1:])
            if isinstance(receiver, SymDict):
                raise _PathError("get() on symbolic dict (use `in` + indexing)")
            raise _PathError("get() on unsupported receiver")
        if name == "pop":
            if isinstance(receiver, list) and all(isinstance(a, int) for a in args):
                try:
                    return receiver.pop(*args)
                except IndexError:
                    raise _PathError("pop from empty list") from None
            raise _PathError("pop() on unsupported receiver")
        if name == "keys" and isinstance(receiver, dict):
            return list(receiver.keys())
        if name == "values" and isinstance(receiver, dict):
            return list(receiver.values())
        if name == "clear":
            if isinstance(receiver, SymDict):
                receiver.clear()
                return None
            if isinstance(receiver, (dict, list)):
                receiver.clear()
                return None
            raise _PathError("clear() on unsupported receiver")
        raise _PathError(f"unsupported method {name!r} in symbolic mode")

    def _dict_key(self, key: Any) -> Any:
        if isinstance(key, list):
            return tuple(key)
        return key


def _newest_entries(sym_dict: SymDict) -> List[Tuple[Any, Any]]:
    """Written (key, value) pairs, newest-wins, one per canonical key."""
    seen: Set[str] = set()
    out: List[Tuple[Any, Any]] = []
    for key, value in reversed(sym_dict.entries):
        key_c = canon(key)
        if key_c in seen:
            continue
        seen.add(key_c)
        out.append((key, value))
    return out


def _freeze(value: Any) -> Any:
    """Make a symbolic value immutable for storage inside SApp args."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value
