import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bodyschema import chain, cli, correction, extraction, pipeline, pose_net, robots
from bodyschema import topology as tp
from bodyschema.errors import DegenerateSensorError
from bodyschema.pipeline import ExperimentManifest, load_manifest, run_pipeline

from test_chain import _reference_analytic_jacobian
from test_topology import FIVE_NODE_COLS, FIVE_NODE_ROWS, FIVE_NODE_VALUES


@pytest.fixture()
def short_oracle_manifest():
    return ExperimentManifest(
        robot="robot3", mode="oracle-fk", duration=1.0, rate=50.0, seed=0
    )


class TestPipeline:
    def test_oracle_run_recovers_exactly(self, short_oracle_manifest, tmp_path):
        short_oracle_manifest.out_dir = str(tmp_path / "run")
        report = run_pipeline(short_oracle_manifest)
        assert report.exact_match and report.structure_match
        assert report.hamming_to_truth == 0
        assert not report.corrected and not report.completed
        for name in ("robot.json", "matrix.json", "tree.json", "tree.dot", "report.json"):
            assert (tmp_path / "run" / name).exists()
        tree = tp.OutTree.from_json_dict(
            json.loads((tmp_path / "run" / "tree.json").read_text())
        )
        assert tree == robots.builtin_robot("robot3").topology

    def test_delta_override_respected(self, short_oracle_manifest):
        short_oracle_manifest.delta = 0.2
        report = run_pipeline(short_oracle_manifest)
        assert report.delta_used == 0.2
        assert report.exact_match

    def test_reproducible_bit_for_bit(self, short_oracle_manifest):
        tiny_learned = ExperimentManifest(
            robot="robot5", mode="learned", duration=1.0, rate=50.0,
            epochs=1, hidden_width=8, sensors_per_link=1, delta_grid_size=5,
        )
        for manifest in (short_oracle_manifest, tiny_learned):
            a = run_pipeline(manifest)
            b = run_pipeline(manifest)
            assert dataclasses.replace(a, timings={}) == dataclasses.replace(b, timings={})
            assert a.matrix == b.matrix
            assert a.tree == b.tree
            assert a.delta_used == b.delta_used

    def test_manifest_roundtrip(self, tmp_path):
        m = ExperimentManifest(robot="robot2", mode="learned", seed=42, delta=0.15)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(m.to_json_dict()))
        assert load_manifest(path) == m

    def test_manifest_rejects_unknown_fields(self, tmp_path):
        from bodyschema.errors import SchemaError

        path = tmp_path / "manifest.json"
        # a made-up field, then fields of older manifests at the values every
        # run used
        for key, value in [
            ("bogus", 1),
            ("cluster_method", "dpmeans"),
            ("aggregate", "rms"),
            ("optimizer", "adam"),
            ("momentum", 0.0),
            ("alpha_dp", 1.0),
        ]:
            path.write_text(json.dumps({**ExperimentManifest().to_json_dict(), key: value}))
            with pytest.raises(SchemaError, match=key):
                load_manifest(path)
            assert cli.main(["run", "--manifest", str(path)]) == cli.EXIT_SCHEMA

    def test_unsensed_link_filled_by_completion(self, tmp_path):
        # strip the sensors from a link with two children: its row
        # disappears, the remainder stays consistent, and the filling is
        # forced (its edge still carries both subtrees), restoring the
        # structure under a fresh label
        spec = robots.builtin_robot("robot3")
        mounts = {n: m for n, m in spec.mounts.items() if n != "l1"}
        stripped = chain.RobotSpec(spec.topology, spec.joints, mounts, spec.gravity)
        path = tmp_path / "partial_robot.json"
        chain.save_robot(stripped, path)
        report = run_pipeline(ExperimentManifest(
            robot=str(path), mode="oracle-fk", duration=1.0, rate=50.0,
            seed=0, delta=0.2,
        ))
        assert report.completed and not report.corrected
        assert report.unique_completion  # a missing two-child row is forced
        assert report.structure_match  # edge-labelled shape is exact
        assert not report.exact_match  # the invented row label cannot match
        assert report.hamming_to_truth == 0

    def test_unsensed_chain_link_fills_ambiguously_but_validly(self, tmp_path):
        # dropping a single-child chain link leaves its edge and the child's
        # edge indistinguishable, so the filling is valid but not forced
        spec = robots.builtin_robot("robot1")
        mounts = {n: m for n, m in spec.mounts.items() if n != "l3"}
        stripped = chain.RobotSpec(spec.topology, spec.joints, mounts, spec.gravity)
        path = tmp_path / "partial_robot.json"
        chain.save_robot(stripped, path)
        report = run_pipeline(ExperimentManifest(
            robot=str(path), mode="oracle-fk", duration=1.0, rate=50.0,
            seed=0, delta=0.2,
        ))
        assert report.completed and not report.unique_completion
        assert report.hamming_to_truth in (0, 2)  # j3/j4 may swap


    def test_oracle_run_does_not_simulate(self, short_oracle_manifest, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("oracle mode simulated a trajectory")

        monkeypatch.setattr(chain, "gen_trajectory", no_simulation)
        report = run_pipeline(short_oracle_manifest)
        assert report.exact_match
        assert tp.OutTree.from_json_dict(report.tree) == robots.builtin_robot(
            "robot3"
        ).topology

    def test_select_delta_clusters_each_grid_point_once(self, monkeypatch):
        spec = robots.builtin_robot("robot2")
        rng = np.random.default_rng(0)
        thetas = [rng.uniform(-np.pi, np.pi, spec.n_joints) for _ in range(32)]
        dprimes = {
            sid: extraction.feature_raw(extraction.tij_aggregate(
                lambda th, s=sid: chain.analytic_jacobian(spec, th, s),
                thetas,
            ))
            for sid in spec.sensor_ids
        }
        manifest = ExperimentManifest(robot="robot2", mode="learned")
        calls = []
        original = extraction.cluster_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(extraction, "cluster_rows", counting)
        delta = pipeline._select_delta(dprimes, spec, manifest)
        assert len(calls) == manifest.delta_grid_size
        matrix, purity, _ = pipeline._assemble_matrix(dprimes, delta, spec, manifest)
        assert tp.matrix_to_tree(matrix) == spec.topology
        assert purity == 1.0


def small_net(n_joints, seed=0, degenerate=False):
    """A random width-4 pose net; a degenerate one has its first layer
    zeroed, so its pose Jacobian vanishes at every configuration."""
    net = pose_net.init_pose_net(n_joints, widths=(4, 4, 4), seed=seed)
    if degenerate:
        w, b = net.hidden[0]
        net.hidden[0] = (np.zeros_like(w), b)
    return net


def per_sensor_features(jac_fns, thetas, sensor_ids):
    """``sensor_features`` composed one sensor at a time from a
    ``{sensor_id: theta -> Jacobian stack}`` dict."""
    dprimes, skipped = {}, []
    for sid in sensor_ids:
        try:
            dprimes[sid] = extraction.feature_raw(
                extraction.tij_aggregate(jac_fns[sid], thetas)
            )
        except DegenerateSensorError:
            skipped.append(sid)
    return dprimes, skipped


def assert_same_features(got, want):
    """Equal ``(dprimes, skipped)``: keys in the same order, floats exact."""
    assert list(got[0]) == list(want[0])
    for sid in want[0]:
        assert np.array_equal(got[0][sid], want[0][sid])
    assert got[1] == want[1]


class TestSensorFeatures:
    """``sensor_features`` over one ``jacobian_fns`` callable gives the
    ``d'`` of the per-sensor composition, in ``spec.sensor_ids`` order."""

    @pytest.mark.parametrize("name", robots.BUILTIN_NAMES)
    def test_oracle_walk_equals_per_sensor(self, name):
        spec = robots.builtin_robot(name)
        thetas = pipeline._extraction_thetas(spec, None, ExperimentManifest(seed=3))
        got = pipeline.sensor_features(
            pipeline.jacobian_fns(spec), thetas, spec.sensor_ids
        )
        want = per_sensor_features(
            {
                sid: (lambda th, s=sid: _reference_analytic_jacobian(spec, th, s))
                for sid in spec.sensor_ids
            },
            thetas,
            spec.sensor_ids,
        )
        assert_same_features(got, want)
        assert list(got[0]) == list(spec.sensor_ids)

    def test_walk_order_is_not_sensor_order(self):
        # the walk yields robot3's l4 (under l2) before l3, so the oracle
        # test above sees sensor_features restore the order
        spec = robots.builtin_robot("robot3")
        walked = [sid for sid, _ in chain.analytic_jacobians(spec, np.zeros(5))]
        assert sorted(walked) == sorted(spec.sensor_ids)
        assert walked != list(spec.sensor_ids)

    def test_trained_nets_equal_per_sensor(self):
        manifest = ExperimentManifest(
            robot="robot2", mode="learned", duration=2.0, rate=50.0, epochs=1,
            hidden_width=8, theta_samples=16,
        )
        spec = pipeline._resolve_robot(manifest)
        traj = pipeline.simulate(spec, manifest)
        # nets given in reverse order, two of them with a zeroed first layer
        nets = {
            sid: pipeline.train_sensor(spec, traj, sid, manifest).net
            for sid in reversed(spec.sensor_ids)
        }
        for sid in (spec.sensor_ids[6], spec.sensor_ids[1]):
            nets[sid] = small_net(spec.n_joints, degenerate=True)
        thetas = pipeline._extraction_thetas(spec, traj, manifest)
        got = pipeline.sensor_features(
            pipeline.jacobian_fns(spec, nets), thetas, spec.sensor_ids
        )
        want = per_sensor_features(
            {
                sid: (lambda th, net=net: pose_net.pose_jacobian(net, th))
                for sid, net in nets.items()
            },
            thetas,
            spec.sensor_ids,
        )
        assert_same_features(got, want)
        assert got[1] == [spec.sensor_ids[1], spec.sensor_ids[6]]


def write_five_node_matrix(path):
    doc = {
        "row_labels": list(FIVE_NODE_ROWS),
        "col_labels": list(FIVE_NODE_COLS),
        "rows": FIVE_NODE_VALUES.astype(int).tolist(),
    }
    path.write_text(json.dumps(doc))


class TestCli:
    def test_generate_simulate_extract_to_tree(self, tmp_path, capsys):
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        matrix = tmp_path / "matrix.json"
        assert cli.main(["generate", "--robot", "robot2", "--out", str(robot)]) == 0
        assert cli.main([
            "simulate", "--spec", str(robot), "--duration", "0.5",
            "--rate", "50", "--out", str(traj),
        ]) == 0
        assert cli.main([
            "extract", "--spec", str(robot), "--delta", "0.2", "--out", str(matrix),
        ]) == 0
        out_dot = tmp_path / "tree.dot"
        out_json = tmp_path / "tree.json"
        assert cli.main([
            "to-tree", "--matrix", str(matrix),
            "--out-dot", str(out_dot), "--out-json", str(out_json),
        ]) == 0
        tree = tp.OutTree.from_json_dict(json.loads(out_json.read_text()))
        # rows keep sensor labels; structure must match the generating robot
        spec = robots.builtin_robot("robot2")
        assert len(tree.nodes) == 5
        assert set(tree.edges) == set(spec.joint_order)

    def test_to_tree_on_worked_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_five_node_matrix(path)
        dot = tmp_path / "tree.dot"
        assert cli.main(["to-tree", "--matrix", str(path), "--out-dot", str(dot)]) == 0
        text = dot.read_text()
        for arrow in (
            '"__root__" -> "b" [label="e1"]',
            '"b" -> "d" [label="e3"]',
            '"b" -> "f" [label="e2"]',
            '"d" -> "a" [label="e4"]',
            '"d" -> "c" [label="e5"]',
        ):
            assert arrow in text

    def test_to_tree_invalid_matrix_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "row_labels": ["r1", "r2", "r3"],
            "col_labels": ["c1", "c2", "c3"],
            "rows": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        }))
        assert cli.main(["to-tree", "--matrix", str(path)]) == cli.EXIT_NOT_A_TREE

    def test_correct_counterexample(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({
            "row_labels": ["r1", "r2", "r3"],
            "col_labels": ["c1", "c2", "c3"],
            "rows": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        }))
        out = tmp_path / "candidates.json"
        assert cli.main(["correct", "--matrix", str(src), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distance"] == 2
        assert len(doc["candidates"]) >= 1
        for cand in doc["candidates"]:
            m = tp.DependencyMatrix.from_json_dict(cand)
            assert tp.check_conditions(m).satisfies_P

    def test_complete_partial_file(self, tmp_path):
        src = tmp_path / "partial.json"
        m = tp.DependencyMatrix(FIVE_NODE_ROWS, FIVE_NODE_COLS, FIVE_NODE_VALUES)
        sub = m.restrict_rows(["b", "c", "d", "f"])
        src.write_text(json.dumps(sub.to_json_dict()))
        out = tmp_path / "full.json"
        assert cli.main(["complete", "--matrix", str(src), "--out", str(out)]) == 0
        full = tp.DependencyMatrix.from_json_dict(json.loads(out.read_text()))
        assert full.shape == (5, 5)
        assert tp.check_conditions(full).satisfies_P

    def test_compare(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_five_node_matrix(a)
        write_five_node_matrix(b)
        assert cli.main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "hamming: 0" in out
        assert "exact match: True" in out

    def test_train_subcommand_single_sensor(self, tmp_path, capsys):
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        cli.main(["generate", "--robot", "robot6", "--out", str(robot)])
        cli.main(["simulate", "--spec", str(robot), "--duration", "2",
                  "--rate", "50", "--out", str(traj)])
        assert cli.main([
            "train", "--spec", str(robot), "--traj", str(traj),
            "--sensor", "l1:0", "--epochs", "2", "--rate", "50",
            "--out-dir", str(tmp_path / "nets"),
        ]) == 0
        from bodyschema import pose_net

        net = pose_net.load_net(tmp_path / "nets" / "l1_0.json")
        assert net.n_joints == 5

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main([
            "to-tree", "--matrix", str(tmp_path / "nope.json"),
        ]) == cli.EXIT_SCHEMA

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert cli.main(["to-tree", "--matrix", str(path)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize(
        "bad, fields",
        [
            ("mode", {"mode": "bogus"}),
            ("trajectory_mode", {"trajectory_mode": "nope"}),
            ("duration", {"mode": "learned", "duration": -1}),
            ("sensors_per_link", {"sensors_per_link": "two"}),
        ],
        ids=["mode", "trajectory_mode", "duration", "sensors_per_link"],
    )
    def test_run_manifest_bad_value_exit_code(self, tmp_path, capsys, bad, fields):
        # a value the pipeline cannot run with is a malformed manifest, caught
        # before the run starts: exit 2 naming the field, no traceback
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"robot": "robot3", **fields}))
        assert cli.main(["run", "--manifest", str(path)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error") and repr(bad) in err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["run", "--robot", "robot6", "--delta", "1.5"], "delta"),
            (["run", "--robot", "robot6", "--seed", "-1"], "seed"),
            (["extract", "--delta", "0"], "delta"),
            (["extract", "--theta-samples", "1"], "theta_samples"),
        ],
        ids=["run-delta", "run-seed", "extract-delta", "extract-theta-samples"],
    )
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, argv, bad):
        # a flag is checked like the manifest field it sets: exit 2 naming
        # the field, before any file is read or written
        if argv[0] == "extract":
            robot = tmp_path / "robot.json"
            cli.main(["generate", "--robot", "robot6", "--out", str(robot)])
            argv = argv + ["--spec", str(robot), "--out", str(tmp_path / "m.json")]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error") and repr(bad) in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "case, named",
        [
            ("record-lacks-sensor", "l2:0"),
            ("short-theta", "traj.jsonl"),
            ("spec-sensor-missing", "l1:1"),
            ("metadata-only", "traj.jsonl"),
            ("other-joints", "traj.jsonl"),
        ],
        ids=[
            "record-lacks-sensor", "short-theta", "spec-sensor-missing", "metadata-only",
            "other-joints",
        ],
    )
    def test_train_malformed_trajectory_exit_code(self, tmp_path, capsys, case, named):
        # a trajectory that does not fit its own metadata or the spec is a
        # malformed input: exit 2 naming the file or the sensor, no traceback
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        cli.main(["generate", "--robot", "robot2", "--sensors-per-link", "1",
                  "--out", str(robot)])
        cli.main(["simulate", "--spec", str(robot), "--duration", "0.2",
                  "--rate", "50", "--out", str(traj)])
        meta, *records = traj.read_text().splitlines()
        records = [json.loads(line) for line in records]
        if case == "record-lacks-sensor":
            del records[3]["sensors"]["l2:0"]
        elif case == "short-theta":
            records[3]["theta"] = records[3]["theta"][:-1]
        elif case == "spec-sensor-missing":
            cli.main(["generate", "--robot", "robot2", "--sensors-per-link", "2",
                      "--out", str(robot)])
        elif case == "metadata-only":
            records = []
        else:
            meta = meta.replace('"j5"', '"j9"')
        traj.write_text("\n".join([meta] + [json.dumps(r) for r in records]) + "\n")
        capsys.readouterr()
        assert cli.main([
            "train", "--spec", str(robot), "--traj", str(traj), "--epochs", "1",
            "--width", "4", "--out-dir", str(tmp_path / "nets"),
        ]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error") and named in err

    def test_run_subcommand(self, tmp_path, capsys):
        assert cli.main([
            "run", "--robot", "robot6", "--mode", "oracle-fk", "--seed", "1",
            "--out", str(tmp_path / "run"),
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["exact_match"] is True
        assert (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("learned", [False, True], ids=["oracle", "nets-dir"])
    def test_extract_draws_run_configurations(self, tmp_path, monkeypatch, learned):
        # both paths hand their sampled configurations to tij_aggregate;
        # record the first hand-off and stop there
        class Drawn(Exception):
            pass

        drawn = []

        def spy(jac_fn, thetas):
            drawn.append(np.array(thetas))
            raise Drawn

        monkeypatch.setattr(extraction, "tij_aggregate", spy)
        # the configurations do not depend on the nets, so skip training
        monkeypatch.setattr(
            pipeline,
            "train_sensor",
            lambda spec, samples, sid, manifest: pose_net.TrainResult(
                pose_net.init_pose_net(spec.n_joints, widths=(4, 4, 4)), 0.0
            ),
        )
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        nets = tmp_path / "nets"
        cli.main(["generate", "--robot", "robot2", "--out", str(robot)])
        argv = ["extract", "--spec", str(robot), "--theta-samples", "16",
                "--seed", "5", "--out", str(tmp_path / "matrix.json")]
        if learned:
            cli.main(["simulate", "--spec", str(robot), "--duration", "4",
                      "--rate", "50", "--seed", "5", "--out", str(traj)])
            nets.mkdir()
            spec = chain.load_robot(robot)
            for sid in spec.sensor_ids:
                pose_net.save_net(
                    pose_net.init_pose_net(spec.n_joints, widths=(4, 4, 4)),
                    nets / f"{sid.replace(':', '_')}.json",
                )
            argv += ["--traj", str(traj), "--nets-dir", str(nets)]
        with pytest.raises(Drawn):
            cli.main(argv)
        with pytest.raises(Drawn):
            run_pipeline(ExperimentManifest(
                robot="robot2", mode="learned" if learned else "oracle-fk",
                duration=4.0, rate=50.0, seed=5, theta_samples=16,
            ))
        staged, fused = drawn
        assert staged.shape == (16, robots.builtin_robot("robot2").n_joints)
        assert np.array_equal(staged, fused)

    def test_stage_artifacts_chain_like_fused_run(self, tmp_path):
        # feeding each stage's file into the next subcommand matches the
        # fused pipeline's recovered tree
        robot = tmp_path / "robot.json"
        matrix = tmp_path / "matrix.json"
        tree_json = tmp_path / "tree.json"
        cli.main(["generate", "--robot", "robot4", "--out", str(robot)])
        cli.main(["extract", "--spec", str(robot), "--delta", "0.3",
                  "--seed", "2", "--out", str(matrix)])
        cli.main(["to-tree", "--matrix", str(matrix), "--out-json", str(tree_json)])
        staged = tp.OutTree.from_json_dict(json.loads(tree_json.read_text()))
        fused = run_pipeline(ExperimentManifest(
            robot="robot4", mode="oracle-fk", duration=1.0, rate=50.0,
            seed=2, delta=0.3,
        ))
        fused_tree = tp.OutTree.from_json_dict(fused.tree)
        # sensor-labelled vs link-labelled rows: compare edge structure
        def edge_parents(t):
            return {
                e: (None if p is None else t.edge_to(p))
                for n, (p, e) in t.parents.items()
            }
        assert edge_parents(staged) == edge_parents(fused_tree)


    @staticmethod
    def _extract_with_nets(tmp_path, degenerate):
        # random robot2 nets, the ``degenerate`` sensors' nets with a zeroed
        # first layer
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        matrix = tmp_path / "matrix.json"
        nets = tmp_path / "nets"
        nets.mkdir()
        cli.main(["generate", "--robot", "robot2", "--out", str(robot)])
        cli.main(["simulate", "--spec", str(robot), "--duration", "1",
                  "--rate", "50", "--out", str(traj)])
        spec = chain.load_robot(robot)
        for i, sid in enumerate(spec.sensor_ids):
            net = small_net(spec.n_joints, seed=i, degenerate=sid in degenerate)
            pose_net.save_net(net, pipeline.net_file(nets, sid))
        code = cli.main([
            "extract", "--spec", str(robot), "--traj", str(traj),
            "--nets-dir", str(nets), "--delta", "0.05", "--out", str(matrix),
        ])
        return code, matrix

    def test_extract_skips_degenerate_sensor(self, tmp_path, capsys):
        code, matrix = self._extract_with_nets(tmp_path, {"l2:1"})
        assert code == 0
        assert "l2:1" in capsys.readouterr().err
        m = tp.DependencyMatrix.from_json_dict(json.loads(matrix.read_text()))
        assert "l2:1" not in m.row_labels
        assert all("l2:1" not in group for group in m.merged_groups.values())

    def test_extract_every_sensor_degenerate_exit_code(self, tmp_path):
        every = set(robots.builtin_robot("robot2").sensor_ids)
        code, matrix = self._extract_with_nets(tmp_path, every)
        assert code == cli.EXIT_NOT_A_TREE
        assert not matrix.exists()

    def test_run_every_sensor_degenerate_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            pipeline,
            "train_sensor",
            lambda spec, samples, sid, manifest: pose_net.TrainResult(
                small_net(spec.n_joints, degenerate=True), 0.0
            ),
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(ExperimentManifest(
            robot="robot5", mode="learned", duration=1.0, rate=50.0,
            sensors_per_link=1,
        ).to_json_dict()))
        assert cli.main(["run", "--manifest", str(path)]) == cli.EXIT_NOT_A_TREE

    def test_complete_fresh_labels_avoid_observed_rows(self, tmp_path):
        m = tp.DependencyMatrix(FIVE_NODE_ROWS, FIVE_NODE_COLS, FIVE_NODE_VALUES)
        sub = m.restrict_rows(["b", "c", "d", "f"])
        observed = ("u1",) + sub.row_labels[1:]
        src = tmp_path / "partial.json"
        src.write_text(json.dumps(
            tp.DependencyMatrix(observed, sub.col_labels, sub.values).to_json_dict()
        ))
        out = tmp_path / "full.json"
        assert cli.main(["complete", "--matrix", str(src), "--out", str(out)]) == 0
        full = tp.DependencyMatrix.from_json_dict(json.loads(out.read_text()))
        assert tp.check_conditions(full).satisfies_P
        assert full.row_labels[:4] == observed
        assert len(set(full.row_labels)) == 5

    @pytest.mark.parametrize(
        "rows, labels, named",
        [
            (["b", "c", "d", "f"], "x,y", "--labels"),
            (["b", "c", "d"], "x", "--labels"),
            (["b", "c", "d"], "x,x", "--labels"),
            (["b", "c", "d", "f"], "c", "c"),
        ],
        ids=["too-many", "too-few", "repeated", "observed"],
    )
    def test_complete_bad_labels_exit_code(self, tmp_path, capsys, rows, labels, named):
        m = tp.DependencyMatrix(FIVE_NODE_ROWS, FIVE_NODE_COLS, FIVE_NODE_VALUES)
        src = tmp_path / "partial.json"
        src.write_text(json.dumps(m.restrict_rows(rows).to_json_dict()))
        out = tmp_path / "full.json"
        assert cli.main([
            "complete", "--matrix", str(src), "--labels", labels, "--out", str(out),
        ]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "--labels" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correct", "complete"])
    def test_tall_matrix_exit_code(self, tmp_path, capsys, command):
        # more rows than columns has no tree: exit 3, no traceback
        src = tmp_path / "tall.json"
        src.write_text(json.dumps({
            "row_labels": ["r1", "r2", "r3"],
            "col_labels": ["c1", "c2"],
            "rows": [[1, 0], [1, 1], [0, 1]],
        }))
        out = tmp_path / "out.json"
        assert cli.main([command, "--matrix", str(src), "--out", str(out)]) == (
            cli.EXIT_NOT_A_TREE
        )
        assert "3 rows but only 2 columns" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_writes_pipeline_trajectory(self, tmp_path):
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        cli.main(["generate", "--robot", "robot3", "--out", str(robot)])
        assert cli.main([
            "simulate", "--spec", str(robot), "--trajectory-mode", "smooth_random",
            "--duration", "0.5", "--rate", "40", "--seed", "3",
            "--sigma-alpha", "0.05", "--sigma-beta", "0.01", "--out", str(traj),
        ]) == 0
        spec = chain.load_robot(robot)
        written, _ = chain.load_trajectory(traj)
        expected = pipeline.simulate(spec, ExperimentManifest(
            trajectory_mode="smooth_random", duration=0.5, rate=40.0, seed=3,
            sigma_alpha=0.05, sigma_beta=0.01,
        ))
        assert len(written) == len(expected)
        assert written.sensor_ids == expected.sensor_ids
        for name in ("t", "theta", "theta_dot", "theta_ddot", "alpha", "beta"):
            assert np.array_equal(getattr(written, name), getattr(expected, name))

    def test_train_flags_reach_train_sensor(self, tmp_path, monkeypatch):
        seen = []

        def fake_train(spec, samples, sid, manifest):
            seen.append(manifest)
            return pose_net.TrainResult(
                pose_net.init_pose_net(spec.n_joints, widths=(4, 4, 4)), 0.0
            )

        monkeypatch.setattr(cli, "train_sensor", fake_train)
        robot = tmp_path / "robot.json"
        traj = tmp_path / "traj.jsonl"
        cli.main(["generate", "--robot", "robot6", "--out", str(robot)])
        cli.main(["simulate", "--spec", str(robot), "--duration", "0.5",
                  "--rate", "50", "--out", str(traj)])
        assert cli.main([
            "train", "--spec", str(robot), "--traj", str(traj), "--sensor", "l1:0",
            "--width", "8", "--seed", "3", "--epochs", "1",
            "--out-dir", str(tmp_path / "nets"),
        ]) == 0
        (manifest,) = seen
        assert (manifest.hidden_width, manifest.seed, manifest.epochs) == (8, 3, 1)
        assert manifest.gravity is True and manifest.rate == 100.0

    def test_run_flags_override_manifest_fields(self, tmp_path, monkeypatch):
        class Captured(Exception):
            pass

        def capture(manifest):
            raise Captured(manifest)

        monkeypatch.setattr(cli, "run_pipeline", capture)
        base = ExperimentManifest(
            robot="robot4", mode="learned", seed=1, duration=5.0, epochs=3,
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(base.to_json_dict()))
        with pytest.raises(Captured) as caught:
            cli.main([
                "run", "--manifest", str(path), "--seed", "3",
                "--gravity", "off", "--delta", "0.2",
            ])
        (manifest,) = caught.value.args
        assert manifest == dataclasses.replace(base, seed=3, gravity=False, delta=0.2)


class TestBenchmarkTrace:
    """The benchmark's tracer patches program names from outside; it must
    install and remove cleanly, and both modes must report every stage
    timing the benchmark sums."""

    STAGES = {"simulate", "train_extract", "extract_translate"}

    @pytest.fixture()
    def tracing(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parents[1] / "schemabench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("schemabench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def patched():
        return {
            "check_conditions": pipeline.check_conditions,
            "hamming": pipeline.hamming,
            "complete": pipeline.complete,
            "trellis_correct": pipeline.trellis_correct,
            "dilation_matrix": correction.dilation_matrix,
            "gen_trajectory": chain.gen_trajectory,
            "cluster_rows": extraction.cluster_rows,
            "from_samples": pose_net.SensorDataset.__dict__["from_samples"],
        }

    def test_tracer_installs_runs_and_removes(self, tracing):
        originals = self.patched()
        oracle = ExperimentManifest(
            robot="robot5", mode="oracle-fk", duration=1.0, rate=50.0
        )
        learned = ExperimentManifest(
            robot="robot5", mode="learned", duration=1.0, rate=50.0,
            epochs=1, hidden_width=8, sensors_per_link=1, delta_grid_size=5,
        )
        tracer = tracing.Tracer()
        with tracer:
            assert self.patched()["check_conditions"] is not originals["check_conditions"]
            oracle_report = run_pipeline(oracle)
            assert tracer.calls["chain.gen_trajectory"] == 0
            learned_report = run_pipeline(learned)
        assert self.patched() == originals
        assert oracle_report.exact_match
        assert self.STAGES <= set(oracle_report.timings)
        assert self.STAGES <= set(learned_report.timings)
        assert tracer.calls["chain.gen_trajectory"] == 1
        assert tracer.calls["extraction.cluster_rows"] == learned.delta_grid_size + 1
        assert tracer.batches > 0
