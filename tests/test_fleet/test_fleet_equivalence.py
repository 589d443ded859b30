"""The headline fleet invariant, hypothesis-pinned.

N jobs sharing one :class:`~repro.fleet.FleetScheduler` are
byte-for-byte equivalent to N independent one-job watch processes:
under a randomized schedule of trace growth, poll budgets and
intervals — including a kill/restart boundary where every job is
rebuilt from its checkpoint — each job's frames (prefixes stripped),
final DFG, checkpoint sidecar bytes and emitted ``.elog`` bytes are
identical to a solo watch of an identically-growing directory.

The clock device: both runs replay the *same* absolute-time growth
schedule through a :class:`GrowthClock` — a fake monotonic clock that
applies file-growth chunks whenever sleeping crosses their timestamps.
Work costs no fake time, so a fleet polls job *j* at exactly the same
clock readings as *j*'s solo watch, and the directory bytes visible to
every poll match by construction; what the test pins is that the
*engine, scheduler and presentation* add nothing on top.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetScheduler, FleetView, JobSpec, WatchJob

RULES = """\
[[rule]]
name = "edges"
type = "new_edge"
"""

#: Restart boundary: later than any life-1 poll deadline (max budget 3
#: polls x max interval 2s = polls at 0/2/4s), earlier than the growth
#: horizon so life 2 still sees fresh bytes.
RESTART_AT = 6.0
HORIZON = 12.0


class GrowthClock:
    """Fake monotonic clock that grows trace files as time passes.

    ``chunks`` is a list of ``(t, path, size)``: at time ``t`` the
    file at ``path`` holds (at least) the first ``size`` bytes of its
    full content. Growth is applied when the clock *crosses* ``t`` —
    chunks at exactly a poll's deadline are visible to that poll, in
    the fleet and solo runs alike.
    """

    def __init__(self, chunks, file_bytes) -> None:
        self._pending = sorted(chunks, key=lambda c: c[0])
        self._file_bytes = file_bytes
        self.now = 0.0
        self.advance_to(0.0)

    def __call__(self) -> float:
        return self.now

    def sleep(self, delay: float) -> None:
        self.advance_to(self.now + delay)

    def advance_to(self, t: float) -> None:
        while self._pending and self._pending[0][0] <= t:
            _, path, size = self._pending.pop(0)
            current = path.stat().st_size if path.exists() else 0
            if size > current:  # growth is monotonic, never truncates
                path.write_bytes(self._file_bytes[path.name][:size])
        self.now = max(self.now, t)


def _chunks_for(directory: Path, growth, file_bytes) -> list:
    names = sorted(file_bytes)
    return [(t, directory / names[idx % len(names)],
             max(1, int(len(file_bytes[names[idx % len(names)]])
                        * frac)))
            for t, idx, frac in growth]


def _spec(directory: Path, name: str, plan: dict, rules: Path,
          root: Path) -> JobSpec:
    return JobSpec(source=str(directory), name=name,
                   interval=plan["interval"],
                   rules=str(rules),
                   checkpoint=str(root / f"{name}.ckpt.json"),
                   emit=str(root / f"{name}.elog"))


def _normalize(frames: list[str]) -> list[str]:
    """Absolute emit paths differ between the two trees; the elog
    bytes are compared separately."""
    return ["emitted event log: <elog>"
            if frame.startswith("emitted event log: ") else frame
            for frame in frames]


def _strip_job(frames: list[str], name: str) -> list[str]:
    prefix = f"[{name}] "
    out = []
    for frame in frames:
        if frame.startswith("FLEET:"):
            continue
        if not frame.startswith(prefix):
            continue
        out.append("\n".join(line[len(prefix):]
                             for line in frame.rstrip("\n").split("\n"))
                   + ("\n" if frame.endswith("\n") else ""))
    return _normalize(out)


def _run_fleet_lives(root: Path, plans: dict, rules: Path,
                     file_bytes, all_chunks) -> dict:
    clock = GrowthClock(all_chunks, file_bytes)
    specs = {name: _spec(root / name, name, plan, rules, root)
             for name, plan in plans.items()}
    frames: list[str] = []
    for life, budget_key in enumerate(("polls_1", "polls_2")):
        if life == 1:
            clock.advance_to(RESTART_AT)
        jobs = [specs[name].with_overrides(
                    polls=plans[name][budget_key]).build()
                for name in plans]
        FleetScheduler(jobs, out=frames.append, sleep=clock.sleep,
                       clock=clock, view=FleetView(),
                       isolate=True).run()
        if life == 0:
            for job in jobs:  # the "kill": release every engine
                job.close()
        else:
            final = {job.name: job for job in jobs}
    return {"frames": frames, "jobs": final}


def _run_solo_lives(root: Path, name: str, plan: dict, rules: Path,
                    file_bytes, chunks) -> dict:
    clock = GrowthClock(chunks, file_bytes)
    spec = _spec(root / name, name, plan, rules, root)
    frames: list[str] = []
    for life, budget_key in enumerate(("polls_1", "polls_2")):
        if life == 1:
            clock.advance_to(RESTART_AT)
        engine = spec.build_engine()
        FleetScheduler([WatchJob(engine, interval=plan["interval"],
                                 polls=plan[budget_key])],
                       out=frames.append, sleep=clock.sleep,
                       clock=clock).run()
        if life == 0:
            engine.close()
    return {"frames": _normalize(frames), "engine": engine}


job_plans = st.fixed_dictionaries({
    "interval": st.sampled_from([1.0, 2.0]),
    "polls_1": st.integers(min_value=1, max_value=3),
    "polls_2": st.integers(min_value=1, max_value=3),
    "growth": st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=HORIZON).map(
                lambda t: round(t, 3)),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.01, max_value=1.0)),
        max_size=8),
})


class TestFleetEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(plans=st.fixed_dictionaries({"app1": job_plans,
                                        "app2": job_plans}))
    def test_fleet_equals_independent_watchers(
            self, tmp_path_factory, ls_file_bytes, plans):
        root = tmp_path_factory.mktemp("equiv")
        rules = root / "rules.toml"
        rules.write_text(RULES, encoding="utf-8")
        fleet_root = root / "fleet"
        fleet_chunks = []
        for name, plan in plans.items():
            (fleet_root / name).mkdir(parents=True)
            fleet_chunks += _chunks_for(fleet_root / name,
                                        plan["growth"], ls_file_bytes)
        fleet = _run_fleet_lives(fleet_root, plans, rules,
                                 ls_file_bytes, fleet_chunks)

        for name, plan in plans.items():
            solo_root = root / f"solo_{name}"
            (solo_root / name).mkdir(parents=True)
            solo = _run_solo_lives(
                solo_root, name, plan, rules, ls_file_bytes,
                _chunks_for(solo_root / name, plan["growth"],
                            ls_file_bytes))
            job = fleet["jobs"][name]
            # 1. Frames: strip the [name] prefixes and the fleet's
            #    status lines — byte-identical to the solo watch.
            assert _strip_job(fleet["frames"], name) == solo["frames"]
            # 2. Final graph and statistics.
            assert job.engine.snapshot_dfg() == \
                solo["engine"].snapshot_dfg()
            # 3. Alert multisets (history survives the restart).
            assert [a.render_line()
                    for a in job.engine.alerts.history] == \
                [a.render_line()
                 for a in solo["engine"].alerts.history]
            # 4. Checkpoint sidecars, byte for byte (paths inside are
            #    relative to each trace dir).
            assert Path(job.spec.checkpoint).read_bytes() == \
                (solo_root / f"{name}.ckpt.json").read_bytes()
            # 5. Emitted event logs, byte for byte.
            assert Path(job.spec.emit).read_bytes() == \
                (solo_root / f"{name}.elog").read_bytes()
            job.close()
            solo["engine"].close()
