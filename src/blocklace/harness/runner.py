"""Drives a scenario: wires agents to the simulated network, feeds scripted
events, runs to quiescence or the tick budget, dumps a trace, and evaluates
oracles.

Execution order within a tick is fixed (scripted events, then deliveries,
then protocol ticks, then invariant monitors), agents always iterate in
roster order, and all randomness comes from generators seeded by the
scenario seed — so a (scenario, seed) pair determines the trace bytes.

A run is quiescent after two quiet rounds in a row (no correct agent sent
a block in its tick or still has a retransmit timer running) with no
datagram in flight and no scripted event left.  Eager pairs (a block's
creator sending it, TL relays) and WL relay copies on a backstop have
timers.  A WL relay copy whose creator is known to send the block to
the same member has none: the creator's own timer holds the run open
until that member holds the block (`retransmit`).

A scripted event whose precondition is not met yet (a label not bound, an
invite not yet delivered) stays queued and is retried each tick; an
agent's events execute in script order.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Optional, Union

from .. import crypto
from ..blocks import NetAddress, encode_block
from ..simnet import Datagram, NetConfig, SimNet, Trace
from ..tl import TlAgent
from ..wl import WlAgent, WlConfig, partition_violations
from . import oracles as oracle_mod
from .adversaries import ROLE_WRAPPERS, AgentWrapper, Ctx, Defer, RawSend
from .scenario import Event, Scenario, ScenarioError

TRACE_HEADER = "blocklace-trace v3"


@dataclass
class RunResult:
    scenario: Scenario
    trace_text: str
    report: dict
    oracle_results: list
    wrappers: dict[str, AgentWrapper]
    quiescence_tick: Optional[int]

    def all_pass(self) -> bool:
        return all(r.verdict == "PASS" for r in self.oracle_results)


def agent_keypair(seed: int, name: str) -> crypto.Keypair:
    return crypto.keygen(crypto.derive_seed("agent", seed, name))


class Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.trace = Trace()
        self.net = SimNet(
            NetConfig(
                loss_prob=scenario.loss_prob,
                dup_prob=scenario.dup_prob,
                delay_min=scenario.delay_min,
                delay_max=scenario.delay_max,
                seed=scenario.seed,
            ),
            self.trace,
        )
        self.labels: dict = {}
        self.keypairs = {
            spec.name: agent_keypair(scenario.seed, spec.name) for spec in scenario.agents
        }
        self.agent_ids = {name: kp.agent_id for name, kp in self.keypairs.items()}
        self.wrappers: dict[str, AgentWrapper] = {}
        self.eavesdroppers: list[str] = []
        for spec in scenario.agents:
            kp = self.keypairs[spec.name]
            address = spec.initial_address()
            if scenario.protocol == "tl":
                inner: Union[TlAgent, WlAgent] = TlAgent(kp, address)
            else:
                inner = WlAgent(kp, address, WlConfig(encrypt=scenario.wl_encrypt))
            wrapper = ROLE_WRAPPERS[spec.role](spec.name, inner)
            self.wrappers[spec.name] = wrapper
            self.net.bind(spec.name, address, now=0)
            if getattr(wrapper, "taps", False):
                self.eavesdroppers.append(spec.name)
        for agent, knows in scenario.bootstrap:
            target_spec = next(s for s in scenario.agents if s.name == knows)
            self.wrappers[agent].bootstrap(
                self.agent_ids[knows], target_spec.initial_address()
            )
        self.queues: dict[str, list[Event]] = {name: [] for name in self.wrappers}
        for event in scenario.events:
            self.queues[event.agent].append(event)
        self._forge_rngs = {
            name: random.Random(f"forge:{scenario.seed}:{name}") for name in self.wrappers
        }
        self._write_header()

    def _write_header(self):
        self.trace.comment(TRACE_HEADER)
        self.trace.comment(f"scenario={self.scenario.digest()}")
        self.trace.comment(f"seed={self.scenario.seed}")
        self.trace.comment(f"protocol={self.scenario.protocol}")
        for spec in self.scenario.agents:
            self.trace.comment(
                f"agent name={spec.name} role={spec.role} "
                f"id={self.agent_ids[spec.name].hex()} address={spec.initial_address()}"
            )

    # --- helpers ------------------------------------------------------------

    def _submit(self, src_agent: str, sends: list[RawSend], now: int):
        src_address = self.net.table.address_of(src_agent) or ""
        for dst, payload in sends:
            self.net.submit(Datagram(src_address, dst, payload), now)

    def _correct_targets(self) -> list[tuple[str, NetAddress]]:
        out = []
        for spec in self.scenario.agents:
            if spec.role == "correct":
                address = self.net.table.address_of(spec.name)
                if address is not None:
                    out.append((spec.name, address))
        return out

    def _ctx(self, now: int, name: str) -> Ctx:
        return Ctx(
            now=now,
            labels=self.labels,
            agent_ids=self.agent_ids,
            trace=self.trace,
            correct_targets=self._correct_targets,
            rng=self._forge_rngs[name],
            wl_encrypt=self.scenario.wl_encrypt,
        )

    # --- the main loop -----------------------------------------------------------

    def run(self) -> tuple[Optional[int], int]:
        """Returns (quiescence tick or None, last tick executed)."""
        interval = self.scenario.tick_interval
        quiet_rounds = 0
        quiescence_tick: Optional[int] = None
        now = 0
        for now in range(self.scenario.ticks):
            self._run_events(now)
            self._run_deliveries(now)
            quiet = None
            if now % interval == 0:
                quiet = self._run_ticks(now)
            self._run_monitors(now)
            if quiet is not None:
                quiet_rounds = quiet_rounds + 1 if quiet else 0
                if (
                    quiet_rounds >= 2
                    and self.net.in_flight() == 0
                    and all(not q for q in self.queues.values())
                ):
                    quiescence_tick = now
                    break
        self._write_finals(now)
        return quiescence_tick, now

    def _run_events(self, now: int):
        for spec in self.scenario.agents:
            queue = self.queues[spec.name]
            while queue and queue[0].tick <= now:
                event = queue[0]
                wrapper = self.wrappers[spec.name]
                command = event.command
                if command["cmd"] == "rebind":
                    queue.pop(0)
                    address = command["address"]
                    # Checked only now: a deferred event delays the rebind.
                    holder = self.net.table.owner(address)
                    if holder not in (None, spec.name):
                        raise ScenarioError(
                            f"tick {now}: {spec.name} rebinds to {address!r}, which {holder} holds"
                        )
                    self.net.rebind(spec.name, address, now)
                    self._submit(spec.name, wrapper.change_address(address), now)
                    continue
                try:
                    sends = wrapper.run_command(command, self._ctx(now, spec.name))
                except Defer:
                    break
                queue.pop(0)
                self._submit(spec.name, sends, now)

    def _run_deliveries(self, now: int):
        for agent_name, payload, src in self.net.step(now):
            sends = self.wrappers[agent_name].receive(payload, src)
            self._submit(agent_name, sends, now)
            for eavesdropper in self.eavesdroppers:
                if eavesdropper != agent_name:
                    self.wrappers[eavesdropper].receive(payload, src)

    def _run_ticks(self, now: int) -> bool:
        """Every agent's round.  True when the round was quiet: no correct
        agent sent anything and none has an armed retransmit timer, so no
        correct agent still owes a peer a block (a backed-off pair sends
        nothing in most rounds, yet is still outstanding), except WL relay
        copies whose creator is known to send them too."""
        quiet = True
        for spec in self.scenario.agents:
            wrapper = self.wrappers[spec.name]
            sends = wrapper.tick()
            self.trace.record(now, "TICK", agent=spec.name, sends=len(sends))
            if spec.role == "correct" and (sends or wrapper.inner.retransmit.armed()):
                quiet = False
            self._submit(spec.name, sends, now)
        return quiet

    def _run_monitors(self, now: int):
        if self.scenario.protocol != "wl":
            return
        if not any(o.name == "partition_integrity" for o in self.scenario.oracles):
            return
        for spec in self.scenario.agents:
            if spec.role != "correct":
                continue
            for issue in partition_violations(self.wrappers[spec.name].inner.lace):
                self.trace.record(now, "VIOLATION", agent=spec.name, kind=issue)

    def _write_finals(self, end_tick: int):
        for spec in self.scenario.agents:
            wrapper = self.wrappers[spec.name]
            inner = wrapper.inner
            sections: list[tuple[str, list]] = [("lace", list(inner.lace.blocks()))]
            if isinstance(inner, WlAgent):
                sections.append(("pending", inner.pending_blocks()))
            for kind, blocks_list in sections:
                for block in blocks_list:
                    self.trace.record(
                        end_tick,
                        "FINAL",
                        agent=spec.name,
                        kind=kind,
                        hex=encode_block(block),
                    )

    def metrics_report(self) -> dict:
        return {
            name: dataclasses.asdict(wrapper.inner.metrics)
            for name, wrapper in self.wrappers.items()
        }


def run_scenario(
    scenario: Scenario,
    trace_path: Optional[str] = None,
    report_path: Optional[str] = None,
) -> RunResult:
    runner = Runner(scenario)
    quiescence_tick, last_tick = runner.run()
    trace_text = runner.trace.text()
    trace_data = oracle_mod.parse_trace(trace_text)
    results = oracle_mod.evaluate(scenario, trace_data)
    unexecuted = [
        {"agent": name, "tick": e.tick, "cmd": e.command["cmd"]}
        for name, queue in runner.queues.items()
        for e in queue
    ]
    report = {
        "scenario": scenario.digest(),
        "seed": scenario.seed,
        "protocol": scenario.protocol,
        "tick_budget": scenario.ticks,
        "last_tick": last_tick,
        "quiescence_tick": quiescence_tick,
        "unexecuted_events": unexecuted,
        "oracles": [dataclasses.asdict(r) for r in results],
        "agent_metrics": runner.metrics_report(),
    }
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(trace_text)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return RunResult(
        scenario=scenario,
        trace_text=trace_text,
        report=report,
        oracle_results=results,
        wrappers=runner.wrappers,
        quiescence_tick=quiescence_tick,
    )
