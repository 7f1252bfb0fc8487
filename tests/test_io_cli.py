"""Config parsing, snapshot round trips, report emission, CLI exit codes."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsmcf import cli, config, experiments, flow, grids, oracles, reporting, snapshots
from dsmcf.errors import (
    CorruptFileError,
    IoError,
    ParseError,
    ValidationError,
    VersionMismatchError,
)


def small_state(resolution=33, extent=3.0, bc=flow.SLICING):
    grid = grids.Grid(grids.RADIAL, 3, extent=extent, resolution=resolution)
    rho = grid.axis()
    u0 = 0.1 * (1.0 - np.exp(-(rho**2)))
    return flow.GraphState(u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(bc))


def small_trajectory(**overrides):
    settings = dict(cfl_safety=0.5, s_end=0.05, snapshot_stride=10)
    settings.update(overrides)
    return flow.run(small_state(), flow.FlowConfig(**settings))


def one_state_trajectory(state=None):
    """A trajectory holding one state, ``small_state()`` by default."""
    state = small_state() if state is None else state
    return flow.Trajectory(snapshots=[state], dt_history=[0.0])


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg = config.RunConfig()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.as_dict()))
        assert config.load_config(path) == cfg

    def test_round_trip_preserves_overrides(self, tmp_path):
        text = json.dumps(
            {
                "kind": "flatness",
                "grid": {"resolution": 33, "extent": 2.0},
                "bc": "pinned",
                "flow": {"s_end": 0.5, "cfl_safety": 0.25},
                "initial": {"profile": "wrinkled", "amplitude": 0.15},
                "experiment": {"theta": 0.08},
                "seed": 7,
            }
        )
        cfg = config.parse_config(text)
        assert cfg.kind == "flatness"
        assert cfg.grid.resolution == 33
        assert cfg.bc == flow.PINNED
        assert cfg.flow.s_end == 0.5
        assert cfg.initial.amplitude == 0.15
        assert cfg.experiment.theta == 0.08
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.as_dict()))
        assert config.load_config(path) == cfg

    def test_empty_object_is_all_defaults(self):
        assert config.parse_config("{}") == config.RunConfig()

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match=r"not valid JSON.*line 3"):
            config.parse_config('{\n  "kind": "verify",\n  "seed": ,\n}')

    def test_unknown_key_reports_section_and_line(self):
        text = '{\n  "checks": {\n    "alpha0": 1.0\n  }\n}'
        with pytest.raises(ParseError, match=r"unknown key 'alpha0' in checks.*line 3"):
            config.parse_config(text)

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError, match="unknown key 'mesh'"):
            config.parse_config('{"mesh": {}}')

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^checks: alpha must lie in \(0, 2\), got 2.5"):
            config.parse_config('{"checks": {"alpha": 2.5}}')

    def test_resolution_too_low(self):
        with pytest.raises(ValidationError, match="^grid: resolution 3 < 5"):
            config.parse_config('{"grid": {"resolution": 3}}')

    def test_theta_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^experiment: theta must lie in \(0, 1\)"):
            config.parse_config('{"experiment": {"theta": 1.0}}')

    def test_delta_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^checks: delta must lie in \[0, 1/3\]"):
            config.parse_config('{"checks": {"delta": 0.4}}')

    def test_jet_count_is_bounded_by_the_node_limit(self):
        doc = {"checks": {"jet_count": config.MAX_NODES}}
        assert config.parse_config(json.dumps(doc)).checks.jet_count == config.MAX_NODES
        doc["checks"]["jet_count"] += 1
        with pytest.raises(ValidationError, match=f"^checks: jet_count .*{config.MAX_NODES}"):
            config.parse_config(json.dumps(doc))

    def test_bad_cfl_wrapped(self):
        with pytest.raises(ValidationError, match="cfl_safety"):
            config.parse_config('{"flow": {"cfl_safety": 0.0}}')

    def test_margin_floor_is_not_a_config_key(self):
        with pytest.raises(ParseError, match="unknown key 'margin_floor' in flow"):
            config.parse_config('{"flow": {"margin_floor": 1e-8}}')

    @pytest.mark.parametrize("key", ["alpha", "region"])
    def test_unread_experiment_options_are_not_config_keys(self, key):
        with pytest.raises(ParseError, match=f"unknown key '{key}' in experiment"):
            config.parse_config(json.dumps({"experiment": {key: 1.0}}))

    def test_ramp_tilt_must_exceed_one(self):
        with pytest.raises(ValidationError, match="ramp tilt must exceed 1"):
            config.parse_config('{"initial": {"profile": "ramp", "tilt": 0.5}}')

    def test_weight_radius_is_not_a_config_key(self):
        with pytest.raises(ParseError, match="unknown key 'weight_radius' in checks"):
            config.parse_config('{"checks": {"weight_radius": 100.0}}')

    def test_initial_state_matches_grid(self):
        cfg = config.parse_config('{"grid": {"resolution": 17}}')
        state = cfg.initial_state()
        assert state.u.values.shape == (17,)
        assert state.bc.kind == flow.SLICING


# Arbitrary JSON scalars, lists of them, and the strings the config knows.
# Integers stay small so that no accepted grid is large.
_WORDS = st.sampled_from(
    ["simulate", "slicing", "pinned", "radial", "cartesian", "flat", "bump", "wrinkled", "ramp", "rk2", "implicit"]
)
_SCALARS = st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=6) | _WORDS
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)


def _typed_like(default):
    """Values of the default's JSON type, so that whole configs often parse
    and the initial profiles get built from extreme numbers."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-3, 6)
    if isinstance(default, str):
        return _WORDS
    if isinstance(default, tuple):
        return st.lists(st.floats(), max_size=3)
    return st.floats() | st.none()


def _section_docs(spec):
    defaults = spec()
    return st.fixed_dictionaries(
        {},
        optional={
            f.name: _typed_like(getattr(defaults, f.name)) | _VALUES
            for f in dataclasses.fields(spec)
        },
    )


_CONFIG_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "kind": _WORDS | _VALUES,
        "bc": _WORDS | _VALUES,
        "out": _WORDS | _VALUES,
        "seed": st.integers(-3, 6) | _VALUES,
        "grid": _section_docs(config.GridSpec),
        "flow": _section_docs(flow.FlowConfig),
        "initial": _section_docs(config.InitialSpec),
        "checks": _section_docs(config.CheckSpec),
        "experiment": _section_docs(config.ExperimentSpec),
    },
)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_CONFIG_DOCS)
def test_any_config_builds_or_raises_a_config_error(doc):
    """Whatever scalar values the known keys hold, parsing plus building the
    initial state either works or raises a config error, never anything else."""
    try:
        config.parse_config(json.dumps(doc)).initial_state()
    except (ParseError, ValidationError):
        pass


class TestSnapshots:
    def test_trajectory_round_trip(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(traj, path)
        back = snapshots.load_trajectory(path)
        assert len(back.snapshots) == len(traj.snapshots)
        assert np.array_equal(back.s_values(), traj.s_values())
        assert np.array_equal(np.asarray(back.dt_history), np.asarray(traj.dt_history))
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(a.u.values, b.u.values)
        assert back.failure is None

    def test_trajectory_failure_string_preserved(self, tmp_path):
        traj = small_trajectory(max_steps=5)
        assert traj.failure is not None
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(traj, path)
        assert snapshots.load_trajectory(path).failure == traj.failure

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.dsmcf"
        path.write_bytes(b"NOTADSMC" + bytes(64))
        with pytest.raises(CorruptFileError, match="not a dsmcf trajectory"):
            snapshots.load_trajectory(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(one_state_trajectory(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(CorruptFileError, match="truncated"):
            snapshots.load_trajectory(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(one_state_trajectory(), path)
        blob = bytearray(path.read_bytes())
        blob[-7] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError, match="checksum"):
            snapshots.load_trajectory(path)

    # a bit of the extent, and of a letter of the failure text (bytes 48-69)
    @pytest.mark.parametrize("offset", [20, 60], ids=["header", "failure"])
    def test_corrupted_header_or_failure_text(self, tmp_path, offset):
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(small_trajectory(max_steps=5), path)
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError, match="checksum"):
            snapshots.load_trajectory(path)

    def test_boundary_code_two_loads_as_pinned(self, tmp_path):
        """Boundary code 2, a retired second name of the pinned rule, reads as pinned."""
        traj = one_state_trajectory(small_state(bc=flow.PINNED))
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(traj, path)
        blob = bytearray(path.read_bytes())
        assert blob[14] == 1
        blob[14] = 2
        blob[-4:] = snapshots._CRC.pack(zlib.crc32(blob[:-4]))
        path.write_bytes(bytes(blob))
        (back,) = snapshots.load_trajectory(path).snapshots
        assert back.bc.kind == flow.PINNED
        assert np.array_equal(back.u.values, traj.final.u.values)

    def test_version_mismatch_names_both(self, tmp_path):
        path = tmp_path / "traj.dsmcf"
        snapshots.save_trajectory(one_state_trajectory(), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError, match="version 1, .*version 2"):
            snapshots.load_trajectory(path)

    def test_file_without_snapshots(self, tmp_path):
        # save_trajectory refuses an empty trajectory; a file that holds none
        # under a valid checksum loaded as one whose .final raised IndexError
        header = snapshots._HEADER.pack(
            snapshots._MAGIC, snapshots.FORMAT_VERSION, 0, 3, 0, 0, 9, 1.0, 0, 9, 0
        )
        path = tmp_path / "empty.dsmcf"
        path.write_bytes(header + snapshots._CRC.pack(zlib.crc32(header)))
        with pytest.raises(CorruptFileError, match="holds no snapshots"):
            snapshots.load_trajectory(path)

    @pytest.mark.parametrize("make", [one_state_trajectory, small_trajectory])
    def test_unwritable_path_raises_io_error(self, tmp_path, make):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(IoError, match="cannot write"):
            snapshots.save_trajectory(make(), blocker / "snap.dsmcf")


@pytest.fixture(scope="module")
def snapshot_files(tmp_path_factory):
    """Bytes of one-state trajectories of a radial state and of a 2-d
    Cartesian state whose boundary heights vary, and of a radial trajectory
    that records a failure; and a scratch path."""
    root = tmp_path_factory.mktemp("snapshots")
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=5)
    bump = flow.GraphState(
        u=grids.Field(grid, np.exp(-grid.radius_squared())),
        s=0.5,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    stopped = flow.run(
        small_state(resolution=9),
        flow.FlowConfig(cfl_safety=0.5, s_end=0.05, snapshot_stride=2, max_steps=5),
    )
    objects = {
        "state": one_state_trajectory(small_state(resolution=9)),
        "cartesian": one_state_trajectory(bump),
        "trajectory": stopped,
    }
    blobs = {}
    for kind, traj in objects.items():
        snapshots.save_trajectory(traj, root / kind)
        blobs[kind] = (root / kind).read_bytes()
    return blobs, root / "corrupted.dsmcf"


# Header offsets: dimension 13, bc kind 14, resolution 16, extent 20-27; the
# failure text from 48, so a one-state trajectory's s at 48-55.
@settings(max_examples=400, deadline=None, database=None)
@given(
    kind=st.sampled_from(["state", "cartesian", "trajectory"]),
    edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), min_size=1, max_size=3),
    cut=st.none() | st.integers(0, 400),
)
@example(kind="state", edits=[(13, 0)], cut=None)
@example(kind="state", edits=[(16, 3)], cut=None)
@example(kind="state", edits=[(54, 0xF8), (55, 0x7F)], cut=None)
@example(kind="cartesian", edits=[(14, 1)], cut=None)
@example(kind="trajectory", edits=[(26, 0xF8), (27, 0x7F)], cut=None)
@example(kind="trajectory", edits=[(16, 8)], cut=None)
@example(kind="trajectory", edits=[(48, 0xFF)], cut=None)
def test_corrupted_snapshot_loads_or_raises_a_file_error(snapshot_files, kind, edits, cut):
    """Overwritten bytes and truncations either load as a trajectory whose
    states have finite flow times or raise CorruptFileError or
    VersionMismatchError."""
    blobs, path = snapshot_files
    blob = bytearray(blobs[kind])
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path.write_bytes(bytes(blob[:cut]))
    try:
        loaded = snapshots.load_trajectory(path)
    except (CorruptFileError, VersionMismatchError):
        return
    assert all(np.isfinite(state.s) for state in loaded.snapshots)


class TestReporting:
    def make_check(self, name="demo", passed=True):
        return oracles.ResidualReport(
            name=name, linf=1e-14, l2=1e-15, count=10, tolerance=1e-10, passed=passed
        )

    def test_duplicate_check_rejected(self):
        report = reporting.Report(config={})
        report.add_check(self.make_check())
        with pytest.raises(ValueError, match="reported twice"):
            report.add_check(self.make_check())

    def test_all_passed_logic(self):
        report = reporting.Report(config={})
        report.add_check(self.make_check("ok", passed=True))
        assert report.all_passed()
        report.add_check(self.make_check("bad", passed=False))
        assert not report.all_passed()

    def test_experiment_flags_feed_all_passed(self):
        class Stub:
            def as_dict(self):
                return {"monotone": True, "within_bounds": False, "steps": 3, "passed": False}

        report = reporting.Report(config={})
        report.add_experiment("stub", Stub())
        assert not report.all_passed()

    def test_run_failure_is_part_of_the_verdict(self):
        report = reporting.Report(config={})
        report.add_check(self.make_check())
        report.record_failure("flow run failed: max_steps (5) exceeded")
        doc = report.as_dict()
        assert doc["summary"]["all_passed"] is False
        assert "outcome" not in doc["summary"]
        assert doc["notes"] == ["flow run failed: max_steps (5) exceeded"]

    def test_ragged_series_rejected(self):
        report = reporting.Report(config={})
        with pytest.raises(ValueError):
            report.add_series("x", ("a", "b"), [[1.0, 2.0], [1.0]])

    def test_emit_json_and_csv(self, tmp_path):
        report = reporting.Report(config={"kind": "simulate"})
        report.add_check(self.make_check())
        report.add_series("center_height", ("s", "value"), [[0.0, 0.1], [1.0, 1.3]])
        written = reporting.emit_report(report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["center_height.csv", "report.json"]
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["summary"]["all_passed"] is True
        assert doc["checks"][0]["name"] == "demo"
        lines = (tmp_path / "out" / "center_height.csv").read_text().splitlines()
        assert lines[0] == "s,value"
        assert lines[1] == "0.0,1.0"

    def test_no_checks_marker(self):
        report = reporting.Report(config={})
        assert report.as_dict()["summary"]["marker"] == reporting.NO_CHECKS_MARKER
        report.record_failure("flow run failed")
        assert "marker" not in report.as_dict()["summary"]

    def test_unwritable_path_raises_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(IoError, match="output directory"):
            reporting.emit_report(reporting.Report(config={}), blocker / "sub")


def test_check_toggles_and_check_tables_agree():
    """``verify`` reads only the toggles ``cli._CHECKS`` names, so a boolean
    ``CheckSpec`` field with no entry would be silently ignored, and an entry
    with no field would end in a traceback; the other tables name checks of
    ``cli._CHECKS`` only."""
    toggles = {f.name for f in dataclasses.fields(config.CheckSpec) if f.type == "bool"}
    assert toggles == set(cli._CHECKS)
    for table in (cli._RATE_FIELDS, cli._REFINED, cli._SKIP_REASONS):
        assert set(table) <= set(cli._CHECKS)


#: ``checks`` toggles that leave on only ``coordinate_laplacians``,
#: ``tilt_gradient`` and ``tilt_evolution``: a refinement-order study that
#: runs on any 3-d grid.
REFINED_ONLY = {
    "restriction_gradients": False,
    "tilt_bounds": False,
    "curvature_evolution": False,
}


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_verify_defaults_pass(self, tmp_path, capsys):
        code = cli.main(["verify", "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["summary"]["all_passed"] is True
        assert "outcome" not in doc["summary"]

    def test_simulate_writes_trajectory(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 17},
                "flow": {"s_end": 0.02, "snapshot_stride": 5},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        traj = snapshots.load_trajectory(out / "trajectory.dsmcf")
        assert traj.failure is None
        header = (out / "center_height.csv").read_text().splitlines()[0]
        assert header == "s,value"

    def test_simulate_cartesian_records_the_center(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 2, "resolution": 33},
                "initial": {"profile": "bump", "amplitude": 0.3},
                "flow": {"s_end": 0.005, "snapshot_stride": 1},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        first = (out / "center_height.csv").read_text().splitlines()[1]
        assert first == "0.0,0.3"  # the bump peak sits on the center node

    def test_verify_cartesian_reports_curvature_evolution_unsupported(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 3, "resolution": 25},
                "initial": {"profile": "bump", "amplitude": 0.2, "width": 1.2},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in doc["checks"]]
        assert len(names) == 8 and not any("curvature" in n for n in names)
        skipped = [n for n in doc["notes"] if n.startswith("curvature_evolution skipped")]
        assert len(skipped) == 1 and "radial" in skipped[0] and "\n" not in skipped[0]

    def test_verify_two_dim_reports_tilt_evolution_unsupported(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 2, "resolution": 25},
                "initial": {"profile": "bump", "amplitude": 0.2, "width": 1.2},
            },
        )
        out = tmp_path / "out"
        # the exit code is not asserted: tilt-gradient converges at order
        # 1.68 on this coarse 2-d grid
        cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
        doc = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in doc["checks"]]
        tilt = {"tilt-evolution", "tilt-dissipation-bound", "tilt-decay-bound", "pinching-bound"}
        assert names and not tilt & set(names)
        for check in ("tilt_evolution", "tilt_bounds"):
            skipped = [n for n in doc["notes"] if n.startswith(f"{check} skipped")]
            assert len(skipped) == 1 and "dimension 3" in skipped[0] and "\n" not in skipped[0]

    def test_skipped_checks_build_no_windows(self, tmp_path, monkeypatch):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 2, "resolution": 25},
                "initial": {"profile": "bump", "amplitude": 0.2, "width": 1.2},
            },
        )
        built = []
        evolve = flow.evolve_window
        monkeypatch.setattr(flow, "evolve_window", lambda *a: built.append(a) or evolve(*a))
        cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        skipped = [n.split(" ")[0] for n in doc["notes"] if " skipped: " in n]
        assert skipped == ["tilt_evolution", "tilt_bounds", "curvature_evolution"]
        assert built == []

    def test_smallest_radial_grid_runs_curvature_evolution(self, tmp_path):
        """On 5 nodes, the fewest a grid takes, ``check_curvature_evolution``
        reads the 3 nodes its box keeps, with no skip note and no traceback."""
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "radial", "dimension": 3, "extent": 2.0, "resolution": 5},
                "initial": {"profile": "bump", "amplitude": 0.1, "width": 1.0},
            },
        )
        out = tmp_path / "out"
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "dsmcf.cli", "verify", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        # the exit code is not asserted: 5 and 9 nodes are too few for the orders
        assert done.returncode in (0, 1) and "Traceback" not in done.stderr, done.stderr
        doc = json.loads((out / "report.json").read_text())
        assert not any(" skipped: " in n for n in doc["notes"])
        counts = {c["name"]: c.get("count") for c in doc["checks"]}
        assert counts["curvature-evolution"] == 3 and "traceless-curvature-bound" in counts

    def test_verify_names_s_where_the_state_is_not_spacelike(self, tmp_path, capsys):
        """A steep ramp whose rim the kernel's one-sided stencil reads as
        timelike fails in the checking window's kernel evaluation, and the
        message names the state's s as well as the node."""
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "radial", "dimension": 3, "extent": 0.9, "resolution": 65},
                "initial": {"profile": "ramp", "tilt": 30},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "run failed: at s = 0: margin -9.030e-03 at node (63,)" in err, err
        # the failed run still writes its report, and the verdict is the failure
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["all_passed"] is False and "marker" not in doc["summary"]
        assert any("at s = 0" in n and "at node (63,)" in n for n in doc["notes"])

    @pytest.mark.parametrize("integrator", ["rk2", "euler", "implicit"])
    @pytest.mark.parametrize("resolution", [65, 129, 257])
    def test_verify_radial_bump_passes_under_refinement(self, tmp_path, resolution, integrator):
        # the rates are taken at the state, whatever the flow's integrator
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": resolution},
                "initial": {"profile": "bump", "amplitude": 0.2, "width": 1.2},
                "flow": {"integrator": integrator},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        low, high = oracles.ORDER_WINDOW
        for name in ("tilt-evolution", "curvature-evolution"):
            (check,) = [c for c in doc["checks"] if c["name"] == name]
            assert check["passed"] is True and low <= check["order"] <= high

    @pytest.mark.parametrize("command", ["simulate", "flatness", "rescale", "verify"])
    def test_pinned_runs_a_nonconstant_boundary(self, tmp_path, capsys, command):
        """A bump on a square has boundary heights that vary along each edge;
        ``pinned`` runs it, and the saved trajectory keeps them bit for bit."""
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 2, "resolution": 9},
                "bc": "pinned",
                "initial": {"profile": "bump"},
                "flow": {"s_end": 0.01},
            },
        )
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) in (0, 1)
        assert "config error" not in capsys.readouterr().err
        if command != "simulate":
            return
        initial = config.load_config(cfg).initial_state()
        u0, faces = initial.u.values, initial.grid.boundary()
        assert np.ptp(np.concatenate([u0[face] for face in faces])) > 0.0
        traj = snapshots.load_trajectory(out / "trajectory.dsmcf")
        assert traj.snapshots[-1].s == pytest.approx(0.01)
        for snap in traj.snapshots:
            assert snap.bc.kind == flow.PINNED
            for face in faces:
                assert np.array_equal(snap.u.values[face], u0[face])

    @pytest.mark.parametrize(
        "grid",
        [
            {"mode": "cartesian", "resolution": 10_000_000},
            # 129^3 nodes fit, but the refined 257^3 grid does not
            {"mode": "cartesian", "dimension": 3, "resolution": 129},
            {"mode": "radial", "resolution": 10_000_000},
        ],
    )
    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, grid):
        cfg = self.write_config(tmp_path, {"grid": grid})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(config.MAX_NODES) in err

    def test_oversized_jet_sample_is_a_config_error(self, tmp_path, capsys):
        # 10^12 random jets used to die allocating terabytes
        cfg = self.write_config(
            tmp_path, {"checks": {"jet_sampling": True, "jet_count": 10**12}}
        )
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: checks: jet_count") and err.count("\n") == 1

    def test_largest_grid_within_the_node_bound_parses(self):
        # 128^3 refines to 255^3 = 16,581,375 nodes, just under 2^24
        doc = {"grid": {"mode": "cartesian", "dimension": 3, "resolution": 128}}
        assert config.parse_config(json.dumps(doc)).grid.resolution == 128

    @pytest.mark.parametrize(
        "doc",
        [
            {"grid": {"resolution": "big"}},
            {"grid": {"resolution": 7.5}},
            {"grid": {"extent": -1}},
            {"experiment": {"lambdas": []}},
            {"experiment": {"lambdas": [0.8, 0.4]}},
            {"experiment": {"rho": 0}},
            # checked before the run: the default grid has 1024 nodes
            {"experiment": {"rho": 5.0}},
            {"bc": "frozen"},
        ],
    )
    def test_bad_config_values_exit_two(self, tmp_path, capsys, doc):
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["rescale", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, values",
        [
            ("grid", {"resolution": 3}),
            ("grid", {"resolution": "big"}),
            ("flow", {"cfl_safety": 0.0}),
            ("initial", {"width": 0.0}),
            ("checks", {"alpha": 2.5}),
            ("experiment", {"theta": 1.0}),
        ],
    )
    def test_bad_value_names_its_section(self, tmp_path, capsys, section, values):
        cfg = self.write_config(tmp_path, {section: values})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid",
        [
            # radially, (h/2)^3 underflows to 0 and extent^3 overflows: the
            # cell measure was 0 or inf, and the report held NaN
            {"mode": "radial", "extent": 1e-110},
            {"mode": "radial", "extent": 1e103},
            # 1/h^2 overflows in the radial stencils
            {"mode": "radial", "dimension": 2, "extent": 1e-155},
            # the sum of three squares overflows in |x|^2
            {"mode": "cartesian", "extent": 1e154},
        ],
    )
    def test_extent_that_overflows_the_stencils_exits_two(self, tmp_path, capsys, grid):
        cfg = self.write_config(tmp_path, {"grid": {"resolution": 9, **grid}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid: extent ") and err.count("\n") == 1

    @pytest.mark.parametrize("checks", [{}, REFINED_ONLY], ids=["verify", "refined-checks"])
    def test_height_where_e2u_overflows_exits_two(self, tmp_path, capsys, checks):
        # past u = 354.9 the eigenvalue solve of the pinching bound raised
        # LinAlgError, and the refined orders were NaN
        doc = {"grid": {"resolution": 33}, "initial": {"height": 355.0}, "checks": checks}
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial height 355 ") and err.count("\n") == 1

    FLAT_GRIDS = {
        "radial": {"mode": "radial", "resolution": 33, "extent": 2.0},
        "cartesian": {"mode": "cartesian", "resolution": 9, "extent": 2.0},
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [0.0, 180.0, 250.0, 354.0])
    @pytest.mark.parametrize("mode", ["radial", "cartesian"])
    def test_flat_slice_passes_up_to_the_height_bound(self, tmp_path, capsys, mode, height):
        # past height 177.4, (e^(2u))^2 overflowed in |A|^2, and past 236.6,
        # e^(3u) in the Laplacian densities: inf or NaN residuals and slacks
        doc = {"grid": self.FLAT_GRIDS[mode], "initial": {"profile": "flat", "height": height}}
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [-180.0, -300.0])
    @pytest.mark.parametrize("mode", ["radial", "cartesian"])
    def test_flat_slice_passes_restriction_gradients_far_below_zero(
        self, tmp_path, capsys, mode, height
    ):
        # below height -177.4, e^{-4u} overflowed in the coordinate residual:
        # a RuntimeWarning and a NaN linf
        only = {name: name == "restriction_gradients" for name in cli._CHECKS}
        doc = {
            "grid": self.FLAT_GRIDS[mode],
            "initial": {"profile": "flat", "height": height},
            "checks": only,
        }
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["restriction-gradients"]
        assert report["checks"][0]["linf"] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [-300.0, -354.0])
    def test_cartesian_flat_slice_passes_every_check_far_below_zero(self, tmp_path, capsys, height):
        # near height -354, e^{-2u} in the Laplacian's raised flux nears the
        # largest float, and the one-sided edge stencils overflowed it: a
        # RuntimeWarning, and inf in the boundary ring
        doc = {
            "grid": self.FLAT_GRIDS["cartesian"],
            "initial": {"profile": "flat", "height": height},
        }
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "mode, integrator", [("radial", "rk2"), ("radial", "implicit"), ("cartesian", "rk2")]
    )
    def test_window_past_the_height_bound_exits_two(self, tmp_path, capsys, mode, integrator):
        # the state displaced by eta S = 3 h / 8 climbs past 354.89, where the
        # eigenvalue solve of the pinching bound raised LinAlgError, whatever
        # the flow's integrator
        doc = {
            "grid": self.FLAT_GRIDS[mode],
            "initial": {"profile": "flat", "height": 354.88},
            "flow": {"integrator": integrator},
        }
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        peak = {"radial": "354.903", "cartesian": "355.067"}[mode]
        window = f"the displaced states' height {peak} is not below 354.891"
        assert err.startswith(f"config error: {window}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            # h^2 overflows, and underflows to 0
            {"grid": {"resolution": 9, "extent": 1e300}},
            {"grid": {"resolution": 9, "extent": 1e-300}},
            # tilt^2 overflows
            {"grid": {"resolution": 9}, "initial": {"profile": "ramp", "tilt": 1e300}},
            # a negative cap failed every run
            {"flow": {"blowup_cap": -1}},
        ],
    )
    def test_unrunnable_config_values_exit_two_from_verify(self, tmp_path, capsys, doc):
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_flatness_run_passes(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 33},
                "initial": {"profile": "wrinkled", "amplitude": 0.2, "width": 1.2},
                "flow": {"cfl_safety": 0.5, "s_end": 0.25},
                "experiment": {"theta": 0.05},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["flatness", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["experiments"]["flatness"]["reached"] is True
        assert (out / "flatness_tilt_excess.csv").exists()
        assert (out / "flatness_height_spread.csv").exists()

    def test_flatness_unreached_exits_one(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 33},
                "initial": {"profile": "wrinkled", "amplitude": 0.2, "width": 1.2},
                "flow": {"cfl_safety": 0.5, "s_end": 0.005},
                "experiment": {"theta": 0.0001},
            },
        )
        assert cli.main(["flatness", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_barrier_extent_mismatch_is_config_error(self, tmp_path, capsys):
        code = cli.main(["barrier", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "grid.extent == experiment.disk_radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, cause",
        [
            ({"mode": "cartesian", "dimension": 2, "resolution": 9, "extent": 4.0}, "radial"),
            ({"resolution": 33, "extent": 3.0}, "grid.extent"),
        ],
        ids=["cartesian", "extent"],
    )
    def test_barrier_needs_the_radial_disk_grid(self, tmp_path, capsys, grid, cause):
        cfg = self.write_config(tmp_path, {"grid": grid, "experiment": {"disk_radius": 4.0}})
        assert cli.main(["barrier", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert cause in err
        assert not (tmp_path / "out").exists()

    def test_barrier_small_run(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 33, "extent": 4.0},
                "bc": "pinned",
                "flow": {"integrator": "euler", "cfl_safety": 0.5, "s_end": 0.2},
                "experiment": {"disk_radius": 4.0},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "barrier.csv").read_text().splitlines()[0]
        assert header == "s,w0,bound_3s"

    def test_barrier_health_rows_diagnose_each_snapshot(self, tmp_path, monkeypatch):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 33, "extent": 4.0},
                "bc": "pinned",
                "flow": {"integrator": "euler", "cfl_safety": 0.5, "s_end": 0.2},
                "experiment": {"disk_radius": 4.0},
            },
        )
        runs = []
        run = flow.run
        monkeypatch.setattr(flow, "run", lambda *args: runs.append(run(*args)) or runs[-1])
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header, *rows = (out / "barrier_health.csv").read_text().splitlines()
        assert tuple(header.split(",")) == experiments.HEALTH_COLUMNS
        (traj,) = runs
        assert len(rows) == len(traj.snapshots) > 2
        rho = traj.final.grid.axis()
        for row, state in zip(rows, traj.snapshots):
            d = flow.diagnose(state)
            expected = [d.s, d.min_margin, rho[d.min_margin_at], d.max_v, d.min_H, d.max_H]
            assert [float(x) for x in row.split(",")[:-1]] == expected
            assert int(row.split(",")[-1]) == d.mean_convexity_violations

    def test_barrier_report_describes_the_pinned_run(self, tmp_path):
        # no bc key: the config says slicing, but the barrier disk is pinned
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 65, "extent": 4.0},
                "flow": {"integrator": "euler", "cfl_safety": 0.5, "s_end": 0.05},
                "experiment": {"disk_radius": 4.0},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["bc"] == flow.PINNED
        assert reporting.SLICING_NOTE not in doc["notes"]

    @pytest.mark.parametrize("command", ["barrier", "simulate"])
    def test_implicit_on_cartesian_grid_is_config_error(self, tmp_path, capsys, command):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"mode": "cartesian", "dimension": 2, "resolution": 9},
                "flow": {"integrator": "implicit", "s_end": 0.01},
            },
        )
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config error" in err and "implicit" in err and "radial" in err

    def test_barrier_below_unit_disk_names_the_cause(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 65, "extent": 0.8},
                "bc": "pinned",
                "flow": {"integrator": "implicit", "s_end": 1.5},
                "experiment": {"disk_radius": 0.8},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        (note,) = [n for n in doc["notes"] if n.startswith("translation inequality skipped")]
        assert "disk radius 0.8 <= 1" in note and "shorter" not in note

    def test_barrier_translation_slack_is_part_of_the_verdict(self, tmp_path, monkeypatch):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 129, "extent": 2.0},
                "bc": "pinned",
                "flow": {"integrator": "implicit", "s_end": 1.05},
                "experiment": {"disk_radius": 2.0},
            },
        )
        translation_series = experiments._translation_series

        def failing_slack(*args):
            c, ts, slack = translation_series(*args)
            assert len(slack) > 0
            return c, ts, slack - 1.0

        monkeypatch.setattr(experiments, "_translation_series", failing_slack)
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        doc = json.loads((out / "report.json").read_text())
        result = doc["experiments"]["barrier"]
        assert result["monotone"] and result["within_bounds"] and not result["passed"]
        assert doc["summary"]["all_passed"] is False and "outcome" not in doc["summary"]

    def test_failed_simulate_has_one_false_verdict(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"grid": {"resolution": 17}, "flow": {"s_end": 0.02, "max_steps": 5}}
        )
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["all_passed"] is False and "outcome" not in doc["summary"]
        assert any(n.startswith("flow run failed: max_steps (5)") for n in doc["notes"])

    @pytest.mark.parametrize(
        "command, series",
        [
            ("simulate", ["center_height.csv"]),
            ("flatness", ["flatness_tilt_excess.csv", "flatness_height_spread.csv"]),
            ("rescale", []),
        ],
        ids=["simulate", "flatness", "rescale"],
    )
    def test_failed_run_writes_its_report(self, tmp_path, capsys, command, series):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 17},
                "initial": {"profile": "wrinkled"},
                "flow": {"s_end": 0.02, "max_steps": 5},
            },
        )
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "run failed: flow run failed: max_steps (5) exceeded\n"
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["all_passed"] is False and doc["steps"] == 5
        assert "flow run failed: max_steps (5) exceeded" in doc["notes"]
        for name in series:
            assert len((out / name).read_text().splitlines()) == 2  # header, s = 0

    def test_barrier_implicit_run(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 65, "extent": 4.0},
                "bc": "pinned",
                "flow": {"integrator": "implicit", "s_end": 0.2},
                "experiment": {"disk_radius": 4.0},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        result = doc["experiments"]["barrier"]
        assert result["monotone"] is True and result["within_bounds"] is True

    def test_barrier_implicit_stall_ends_with_a_recorded_failure(self, tmp_path, capsys):
        # At 65 nodes the margin beside the rim collapses near s = 0.74, where
        # steps that move the heights by less than Newton's tolerance used to
        # be accepted without end.
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 65, "extent": 4.0},
                "bc": "pinned",
                "flow": {"integrator": "implicit", "s_end": 1.2, "max_steps": 500},
                "experiment": {"disk_radius": 4.0},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["barrier", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: flow run failed: ") and err.count("\n") == 1
        assert "step size fell below" in err and "Newton tolerance" in err
        # the report holds the failure and the series recorded up to it
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["all_passed"] is False
        assert err.removeprefix("run failed: ").strip() in doc["notes"]
        rows = (out / "barrier.csv").read_text().splitlines()
        assert len(rows) > 2 and 0.7 < float(rows[-1].split(",")[0]) < 0.75

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_out_path_that_is_a_file_exits_one(self, tmp_path, capsys, command):
        cfg = self.write_config(
            tmp_path,
            {"grid": {"resolution": 17}, "flow": {"s_end": 0.02}, "checks": REFINED_ONLY},
        )
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli.main([command, "--config", cfg, "--out", str(blocker), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and err.count("\n") == 1
        assert "output directory" in err

    def test_help_describes_every_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        for fn in cli.COMMANDS.values():
            assert fn.__doc__ and " ".join(fn.__doc__.split()) in out

    def test_rescale_flat_defaults_pass(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"grid": {"resolution": 17}, "flow": {"s_end": 1.0, "dt_fixed": 0.001}}
        )
        out = tmp_path / "out"
        assert cli.main(["rescale", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["all_passed"] is True
        assert doc["experiments"]["convergence"]["passed"] is True
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header == "lambda,sup_u_err,sup_v_err"

    def test_rescale_span_error_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"resolution": 17},
                "flow": {"s_end": 0.2, "dt_fixed": 0.001},
                "experiment": {"lambdas": [0.5]},
            },
        )
        assert cli.main(["rescale", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "recorded span" in capsys.readouterr().err

    def test_refined_checks_pass_on_defaults(self, tmp_path):
        cfg = self.write_config(tmp_path, {"grid": {"resolution": 17}, "checks": REFINED_ONLY})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_jet_sampling_check(self, tmp_path):
        toggles = {
            name: False
            for name in (
                "restriction_gradients",
                "coordinate_laplacians",
                "tilt_gradient",
                "tilt_evolution",
                "tilt_bounds",
                "curvature_evolution",
            )
        }
        toggles.update({"jet_sampling": True, "jet_count": 2000})
        cfg = self.write_config(tmp_path, {"checks": toggles, "seed": 11})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        names = {c["name"] for c in doc["checks"]}
        assert names == {
            "jet-restriction-gradients",
            "jet-tilt-gradient",
            "jet-pinching-bound",
        }

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["verify", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"resolution": 3}}')
        code = cli.main(["verify", "--config", str(path)])
        assert code == 2
        assert "resolution" in capsys.readouterr().err

    def test_slicing_note_recorded(self, tmp_path):
        cfg = self.write_config(tmp_path, {"grid": {"resolution": 17}, "checks": REFINED_ONLY})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert reporting.SLICING_NOTE in doc["notes"]

    def test_importing_the_cli_loads_no_scipy(self):
        """scipy takes most of the import time; only the implicit step and
        Cartesian interpolation need it, and they import it when they run."""
        probe = (
            "import sys, dsmcf.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[]", done.stdout
