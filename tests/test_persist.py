"""Durability: WAL + checkpoint crash recovery must be bit-identical.

The load-bearing test kill-9s a subprocess mid-workload (fsync
``"always"``, so every applied mutation is durable) and asserts the
recovered engine prices exactly like a control engine that applied the
same update prefix without ever crashing. Around it: torn-tail and
corrupted-checkpoint tolerance, the any-prefix replay property, and the
observability counters the ops guide documents.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import PricingEngine, generate_workload, replay
from repro.engine import persist
from repro.graph import generators as gen
from repro.io import SerializationError

SRC = Path(__file__).resolve().parents[1] / "src"


def small_graph(seed=7, n=20):
    return gen.random_biconnected_graph(n, seed=seed)


def durable_engine(tmp_path, g=None, **kw):
    return PricingEngine(
        g if g is not None else small_graph(),
        on_monopoly="inf",
        checkpoint_dir=tmp_path / "state",
        **kw,
    )


def answers(eng, pairs):
    out = []
    for s, t in pairs:
        p = eng.price(s, t)
        out.append((p.path, p.lcp_cost, tuple(sorted(p.payments.items()))))
    return out


# ---------------------------------------------------------------------------
# WAL primitives
# ---------------------------------------------------------------------------


class TestWal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        recs = [
            {"kind": "update", "node": 3, "value": 2.5, "version": 1},
            {"kind": "remove", "node": 7, "version": 2},
        ]
        for r in recs:
            w.append(r)
        w.close()
        scan = persist.read_wal(path)
        assert scan.records == recs
        assert not scan.torn and scan.dropped_lines == 0

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        value = float(np.nextafter(2.5, 3.0))  # not representable shortly
        w.append({"kind": "update", "node": 0, "value": value, "version": 1})
        w.close()
        got = persist.read_wal(path).records[0]["value"]
        assert got == value and isinstance(got, float)

    def test_torn_tail_stops_scan(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        w.append({"kind": "update", "node": 1, "value": 2.0, "version": 1})
        w.append({"kind": "update", "node": 2, "value": 3.0, "version": 2})
        w.close()
        # a crash mid-append leaves a partial last line
        raw = path.read_text()
        path.write_text(raw + '{"kind": "upd')
        scan = persist.read_wal(path)
        assert len(scan.records) == 2
        assert scan.torn and scan.dropped_lines == 1
        assert scan.error is not None

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        w.append({"kind": "update", "node": 1, "value": 2.0, "version": 1})
        w.close()
        line = path.read_text()
        flipped = line.replace('"value":2.0', '"value":2.5')
        assert flipped != line
        path.write_text(flipped)
        scan = persist.read_wal(path)
        assert scan.records == [] and scan.torn

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(persist.PersistError):
            persist.WalWriter(tmp_path / "w.jsonl", fsync="sometimes")


class TestCheckpoint:
    def test_round_trip_with_warm_caches(self, tmp_path):
        g = small_graph()
        eng = PricingEngine(g, on_monopoly="inf")
        eng.price(5, 0)
        eng.price(9, 0)
        state = eng._checkpoint_state()
        assert state.spts and state.pairs  # caches are warm
        path = persist.write_checkpoint(tmp_path / "checkpoint-00000001.json",
                                        state)
        loaded = persist.read_checkpoint(path)
        assert loaded.graph_version == state.graph_version
        assert loaded.model == "node" and loaded.on_monopoly == "inf"
        assert np.array_equal(loaded.graph.costs, g.costs)
        for root, spt in state.spts.items():
            got = loaded.spts[root]
            assert np.array_equal(got.dist, spt.dist)
            assert np.array_equal(got.parent, spt.parent)
        assert loaded.pairs == state.pairs  # (payment, witnessed) tuples

    def test_corrupt_checkpoint_detected(self, tmp_path):
        state = PricingEngine(small_graph())._checkpoint_state()
        path = persist.write_checkpoint(tmp_path / "checkpoint-00000001.json",
                                        state)
        doc = json.loads(path.read_text())
        doc["data"]["graph_version"] = 999  # payload no longer matches CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError):
            persist.read_checkpoint(path)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        state = PricingEngine(small_graph())._checkpoint_state()
        persist.write_checkpoint(tmp_path / "checkpoint-00000001.json", state)
        assert not list(tmp_path.glob("*.tmp"))

    def test_v1_checkpoint_with_pair_rows_recovers(self, tmp_path):
        """A schema-1 checkpoint, whose pair rows hold whole Algorithm-1
        results under ``"result"``, opens through the v1 -> v2 step:
        graph, version and SPTs load, the pair rows are dropped, and
        every price matches a fresh engine bit for bit."""
        from repro import io as repro_io
        from repro.core.fast_payment import fast_vcg_payments
        from repro.graph.dijkstra import node_weighted_spt

        g = small_graph()
        pairs = [(5, 0), (9, 0), (3, 12)]
        spts = {r: node_weighted_spt(g, r) for r in (0, 5, 9)}
        data = {
            "graph": repro_io.to_dict(g),
            "graph_version": 7,
            "model": "node",
            "backend": "auto",
            "on_monopoly": "inf",
            "spts": {
                str(r): {
                    "root": r,
                    "dist": [float(x) for x in spt.dist],
                    "parent": [int(x) for x in spt.parent],
                }
                for r, spt in spts.items()
            },
            "pairs": [
                {
                    "source": s,
                    "target": t,
                    "result": repro_io.to_dict(
                        fast_vcg_payments(g, s, t, on_monopoly="inf")
                    ),
                }
                for s, t in pairs
            ],
        }
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "checkpoint-00000001.json").write_text(json.dumps({
            "format": persist.CHECKPOINT_FORMAT,
            "version": 1,
            "crc": persist._crc_of(data),
            "data": data,
        }))
        eng = PricingEngine.open(state_dir, resume=False)
        assert eng.graph == g
        assert eng.version == 7
        assert eng.cache_sizes() == {"spts": 3, "pairs": 0}
        for r, spt in spts.items():
            got = eng._spts[r][1]
            assert got.dist.tobytes() == spt.dist.tobytes()
            assert np.array_equal(got.parent, spt.parent)
        fresh = PricingEngine(g, on_monopoly="inf")
        assert answers(eng, pairs) == answers(fresh, pairs)


# ---------------------------------------------------------------------------
# engine-level durability
# ---------------------------------------------------------------------------


class TestEngineDurability:
    def test_recovery_is_bit_identical(self, tmp_path):
        g = small_graph()
        eng = durable_engine(tmp_path, g, checkpoint_every=4)
        rng = np.random.default_rng(0)
        for _ in range(11):
            eng.update_cost(int(rng.integers(0, g.n)),
                            float(rng.uniform(1, 5)))
        pairs = [(s, 0) for s in range(1, g.n)]
        want = answers(eng, pairs)
        eng.close()

        twin = PricingEngine.open(tmp_path / "state")
        assert twin.version == eng.version
        assert np.array_equal(twin.graph.costs, eng.graph.costs)
        assert answers(twin, pairs) == want
        assert twin.last_recovery.clean
        twin.close()

    def test_node_churn_recovers(self, tmp_path):
        g = small_graph(n=14)
        eng = durable_engine(tmp_path, g)
        eng.update_cost(2, 9.0)
        nid = eng.add_node(2.5, neighbors=[0, 1, 5])
        eng.remove_node(3)
        eng.update_cost(nid, 1.25)
        want = answers(eng, [(1, 0), (nid, 0)])
        eng.close()
        twin = PricingEngine.open(tmp_path / "state", resume=False)
        assert twin.version == eng.version
        assert answers(twin, [(1, 0), (nid, 0)]) == want

    def test_refuses_to_clobber_existing_state(self, tmp_path):
        eng = durable_engine(tmp_path)
        eng.close()
        with pytest.raises(persist.PersistError, match="recover"):
            durable_engine(tmp_path)

    def test_checkpoint_requires_directory(self):
        eng = PricingEngine(small_graph())
        with pytest.raises(persist.PersistError):
            eng.checkpoint()

    def test_auto_checkpoint_every_n(self, tmp_path):
        eng = durable_engine(tmp_path, checkpoint_every=3)
        rng = np.random.default_rng(1)
        for _ in range(7):
            eng.update_cost(int(rng.integers(0, eng.n)),
                            float(rng.uniform(1, 5)))
        # initial + floor(7/3) automatic ones, capped by retention
        assert eng.stats.checkpoint_writes == 3
        assert eng._persist.records_since_checkpoint == 1
        eng.close()

    def test_retention_prunes_old_generations(self, tmp_path):
        eng = durable_engine(tmp_path, checkpoint_every=2, retain=2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            eng.update_cost(int(rng.integers(0, eng.n)),
                            float(rng.uniform(1, 5)))
        eng.close()
        root = tmp_path / "state"
        assert len(persist.list_checkpoints(root)) == 2
        # WALs below the oldest retained checkpoint are gone too
        floor = min(persist._seq_of(p)
                    for p in persist.list_checkpoints(root))
        assert all(persist._seq_of(p) >= floor
                   for p in persist.list_wals(root))

    def test_counters_and_stats(self, tmp_path):
        eng = durable_engine(tmp_path)
        eng.update_cost(1, 2.0)
        eng.update_cost(2, 3.0)
        eng.checkpoint()
        assert eng.stats.wal_records == 2
        assert eng.stats.checkpoint_writes == 2  # initial + on-demand
        eng.close()
        twin = PricingEngine.open(tmp_path / "state")
        assert twin.stats.recoveries == 1
        assert twin.last_recovery is not None
        assert "recovered from checkpoint" in twin.last_recovery.describe()
        twin.close()

    def test_context_manager_closes_wal(self, tmp_path):
        with durable_engine(tmp_path) as eng:
            eng.update_cost(1, 2.0)
        assert eng._persist._writer is None  # closed


class TestCorruptionTolerance:
    def _engine_with_two_generations(self, tmp_path):
        g = small_graph()
        eng = durable_engine(tmp_path, g, checkpoint_every=4)
        rng = np.random.default_rng(5)
        for _ in range(10):  # two auto checkpoints + live tail
            eng.update_cost(int(rng.integers(0, g.n)),
                            float(rng.uniform(1, 5)))
        eng.close()
        return eng

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        eng = self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        wal = persist.list_wals(root)[-1]
        with wal.open("a") as fh:
            fh.write('{"kind": "update", "node"')  # crash mid-append
        twin = PricingEngine.open(root, resume=False)
        assert twin.last_recovery.torn_tail
        assert twin.version == eng.version  # prefix == everything applied
        twin.close()

    def test_corrupt_checkpoint_falls_back(self, tmp_path):
        eng = self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        newest = persist.list_checkpoints(root)[-1]
        newest.write_text(newest.read_text()[:100])  # truncate = corrupt
        twin = PricingEngine.open(root, resume=False)
        assert twin.last_recovery.skipped_checkpoints
        assert not twin.last_recovery.clean
        # the older checkpoint + longer WAL chain still reach the end state
        assert twin.version == eng.version
        assert np.array_equal(twin.graph.costs, eng.graph.costs)
        twin.close()

    def test_all_checkpoints_corrupt_raises(self, tmp_path):
        self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        for p in persist.list_checkpoints(root):
            p.write_text("not json")
        with pytest.raises(persist.PersistError):
            PricingEngine.open(root)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(persist.PersistError):
            PricingEngine.open(tmp_path / "nothing-here")

    def test_resume_retires_torn_tail(self, tmp_path):
        self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        wal = persist.list_wals(root)[-1]
        with wal.open("a") as fh:
            fh.write('{"torn"')
        twin = PricingEngine.open(root)  # resume=True writes a checkpoint
        twin.close()
        again = PricingEngine.open(root, resume=False)
        assert again.last_recovery.clean  # torn generation pruned/superseded
        assert again.version == twin.version


class TestPrefixProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_any_wal_prefix_equals_direct_replay(self, tmp_path_factory,
                                                 seed, n_updates):
        tmp = tmp_path_factory.mktemp("prefix")
        g = small_graph(seed=3, n=12)
        eng = PricingEngine(g, on_monopoly="inf",
                            checkpoint_dir=tmp / "state")
        rng = np.random.default_rng(seed)
        for _ in range(n_updates):
            kind = rng.random()
            if kind < 0.7 or eng.n <= 6:
                eng.update_cost(int(rng.integers(0, eng.n)),
                                float(rng.uniform(1, 5)))
            elif kind < 0.85:
                eng.add_node(float(rng.uniform(1, 5)),
                             neighbors=[0, int(rng.integers(1, eng.n))])
            else:
                eng.remove_node(int(rng.integers(1, eng.n)))
            # recovery at *every* prefix matches the live engine
            twin = PricingEngine.open(tmp / "state", resume=False)
            assert twin.version == eng.version
            assert type(twin.graph) is type(eng.graph)
            assert np.array_equal(twin.graph.costs, eng.graph.costs)
            assert sorted(twin.graph.edge_iter()) == \
                sorted(eng.graph.edge_iter())
        eng.close()


# ---------------------------------------------------------------------------
# the kill -9 test (the acceptance criterion)
# ---------------------------------------------------------------------------

_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.engine import PricingEngine
    from repro.graph import generators as gen

    state_dir, seed, n_updates = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    g = gen.random_biconnected_graph(30, seed=seed)
    eng = PricingEngine(g, on_monopoly="inf", checkpoint_dir=state_dir,
                        fsync="always", checkpoint_every=7)
    rng = np.random.default_rng(seed)
    for i in range(n_updates):
        eng.update_cost(int(rng.integers(0, g.n)), float(rng.uniform(1, 5)))
        print(i, flush=True)     # parent kills us somewhere in this loop
    print("done", flush=True)
""")


class TestKillNine:
    def test_sigkill_mid_workload_recovers_bit_identical(self, tmp_path):
        seed, n_updates = 11, 400
        state_dir = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(state_dir), str(seed),
             str(n_updates)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        # wait until the child has durably applied a few updates, then
        # kill -9 with the WAL mid-stream
        deadline = time.monotonic() + 60
        seen = 0
        while seen < 25 and time.monotonic() < deadline:
            line = proc.stdout.readline().strip()
            if line == "done":
                break
            if line:
                seen = int(line) + 1
        proc.kill()  # SIGKILL — no atexit, no flush, no mercy
        proc.wait(timeout=30)
        assert seen >= 1, proc.stderr.read()

        recovered = PricingEngine.open(state_dir)
        v = recovered.version
        # fsync="always": everything the child reported applied is durable
        assert v >= seen

        # the control engine applies the same seeded prefix, crash-free
        g = gen.random_biconnected_graph(30, seed=seed)
        control = PricingEngine(g, on_monopoly="inf")
        rng = np.random.default_rng(seed)
        for _ in range(v):
            control.update_cost(int(rng.integers(0, g.n)),
                                float(rng.uniform(1, 5)))
        assert np.array_equal(recovered.graph.costs, control.graph.costs)

        pairs = [(s, 0) for s in range(1, g.n)]
        got = recovered.price_many(pairs)
        want = control.price_many(pairs)
        assert got.keys() == want.keys()
        for key in want:
            a, b = got[key], want[key]
            assert a.path == b.path
            assert a.lcp_cost == b.lcp_cost  # bit-identical, not approx
            assert a.payments == b.payments
        recovered.close()


# ---------------------------------------------------------------------------
# workload replay through a durable engine
# ---------------------------------------------------------------------------


class TestDurableReplay:
    def test_replay_report_unchanged_by_durability(self, tmp_path):
        g = small_graph(n=25)
        ops = generate_workload(g, n_ops=80, update_frac=0.2, seed=4)
        plain = PricingEngine(g, on_monopoly="inf")
        durable = durable_engine(tmp_path, g)
        r1 = replay(plain, ops)
        r2 = replay(durable, ops)
        assert r1.n_queries == r2.n_queries and r1.n_updates == r2.n_updates
        assert plain.version == durable.version
        durable.close()
        twin = PricingEngine.open(tmp_path / "state", resume=False)
        assert twin.version == durable.version
