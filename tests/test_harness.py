import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import railbeam
from railbeam.cli import main
from railbeam.codebook import build_phase_mapper, export_phase_mapper
from railbeam.config import load_config
from railbeam.encounter import no_priority_allocation, symmetric_rate
from railbeam.experiments import EXPERIMENTS, run_experiment
from railbeam.geometry import coverage_interval
from railbeam.positioning import search_beam_count

SMALL = """
element_count = 32
beam_count = 32
theta_grid_size = 7
sigma_grid_m = 1:9:3
p_th_list = 0.8,0.9
r2_grid_size = 5
eta_list = 0,2
eta_grid_size = 3
p0_dbm_list = 37,43
tradeoff_grid_size = 12
traverse_dt_s = 0.02
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return load_config(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestRunExperiment:
    def test_every_experiment_writes_csv_and_manifest(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        for name in EXPERIMENTS:
            manifest = run_experiment(small_cfg, name, out)
            for filename, rows in manifest.files.items():
                target = out / filename
                assert target.exists()
                assert rows == len(target.read_text().splitlines()) - 1
            meta = json.loads(
                (out / f"{name.replace('-', '_')}_manifest.json").read_text()
            )
            assert meta["config"]["d0_m"] == 50.0
            assert meta["files"] == manifest.files

    def test_unknown_experiment_rejected(self, small_cfg, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(small_cfg, "mystery", tmp_path)

    def test_empty_out_dir_rejected_before_any_file_is_written(self, small_cfg, tmp_path, monkeypatch):
        # Path("") is ".": it used to write tradeoff.csv and its manifest into the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="out_dir must name a directory"):
            run_experiment(small_cfg, "tradeoff", "")
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]

    def test_byte_determinism(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for name in ("tradeoff", "d-vs-theta", "rate-region", "symmetric"):
            run_experiment(small_cfg, name, a)
            run_experiment(small_cfg, name, b)
        for csv_a in a.glob("*.csv"):
            assert csv_a.read_bytes() == (b / csv_a.name).read_bytes()


class TestRowRederivability:
    def test_tradeoff_rows_satisfy_identity(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "tradeoff", tmp_path)
        _, rows = read_rows(tmp_path / "tradeoff.csv")
        target = small_cfg.array_type_factor * small_cfg.design_constant / math.pi
        for width_s, gain_s in rows:
            assert float(width_s) * float(gain_s) == pytest.approx(target, rel=1e-10)

    def test_search_rows_reproduce_module_output(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "d-vs-theta", tmp_path)
        header, rows = read_rows(tmp_path / "d_vs_theta.csv")
        array_cfg = small_cfg.array_config()
        for row in rows[:: max(1, len(rows) // 7)]:
            values = dict(zip(header, row))
            result = search_beam_count(
                array_cfg,
                small_cfg.rail_geometry(float(values["theta_b_rad"])),
                small_cfg.positioning_model(p_th=float(values["p_th"])),
            )
            assert result.optimal_beam_count == int(values["n_star"])
            assert result.achieved_probability == pytest.approx(
                float(values["achieved_probability"]), rel=1e-9
            )
            assert int(values["infeasible"]) == int(not result.feasible)

    def test_duality_columns_are_reciprocal(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "d-vs-theta", tmp_path)
        header, rows = read_rows(tmp_path / "d_vs_theta.csv")
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["d_ratio"]) * float(values["n_ratio"]) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_region_rows_reproduce_module_output(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "rate-region", tmp_path)
        _, rows = read_rows(tmp_path / "rate_region_eta0.csv")
        sc = small_cfg.encounter_scenario(eta=0.0)
        for r2_s, r1_s in rows[::2]:
            rate_1, _, _ = no_priority_allocation(sc, float(r2_s))
            assert rate_1 == pytest.approx(float(r1_s), rel=1e-9)

    def test_symmetric_rows_reproduce_module_output(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "symmetric", tmp_path)
        header, rows = read_rows(tmp_path / "symmetric.csv")
        values = dict(zip(header, rows[1]))
        sc = small_cfg.encounter_scenario(
            eta=float(values["eta"]), p0_w=10 ** ((float(values["p0_dbm"]) - 30) / 10)
        )
        assert symmetric_rate(sc) == pytest.approx(float(values["R0_bps_hz"]), rel=1e-9)


class TestSigmaSweepOrdering:
    def test_gain_columns_nonincreasing_in_sigma(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            "sigma_grid_m = 0.5:8:16\np_th_list = 0.7,0.8,0.9\ntheta_b_rad = 1.25\n"
        )
        cfg = load_config(cfg_path)
        run_experiment(cfg, "directivity-vs-sigma", tmp_path)
        header, rows = read_rows(tmp_path / "directivity_vs_sigma.csv")
        for p_th in ("0.7", "0.8", "0.9"):
            gains = [
                float(r[header.index("directivity")])
                for r in rows
                if r[header.index("p_th")] == p_th
            ]
            assert gains == sorted(gains, reverse=True)


class TestInfeasibleRows:
    def test_flagged_not_dropped(self, tmp_path):
        cfg_path = tmp_path / "hard.cfg"
        cfg_path.write_text(
            "element_count = 32\nbeam_count = 32\nsigma_grid_m = 2000,4000\n"
            "p_th_list = 0.95\ntheta_b_rad = 1.4\n"
        )
        cfg = load_config(cfg_path)
        run_experiment(cfg, "directivity-vs-sigma", tmp_path)
        header, rows = read_rows(tmp_path / "directivity_vs_sigma.csv")
        assert len(rows) == 2
        flags = [row[header.index("infeasible")] for row in rows]
        assert flags == ["1", "1"]
        assert all(row[header.index("n_star")] == "1" for row in rows)


class TestTraverseExperiment:
    def test_covers_whole_interval_with_monotone_beams(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "traverse", tmp_path)
        header, rows = read_rows(tmp_path / "traverse.csv")
        beams = [int(r[header.index("beam_id")]) for r in rows]
        assert beams[0] == 1
        assert beams[-1] == small_cfg.beam_count
        assert beams == sorted(beams)
        switches = sum(int(r[header.index("switch")]) for r in rows)
        assert switches == small_cfg.beam_count - 1

    def test_note_records_coverage_interval(self, small_cfg, tmp_path):
        manifest = run_experiment(small_cfg, "d-vs-theta", tmp_path)
        lo, hi = coverage_interval(small_cfg.array_config())
        assert any(f"{lo:.6g}" in note for note in manifest.notes)


class TestCli:
    def test_tradeoff_run(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tradeoff_grid_size = 5\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "tradeoff"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tradeoff.csv" in out
        assert (tmp_path / "o" / "tradeoff.csv").exists()

    def test_search_n_sweep_selection(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "search-n", "--sweep", "sigma"]) == 0
        assert (tmp_path / "o" / "directivity_vs_sigma.csv").exists()
        assert not (tmp_path / "o" / "d_vs_theta.csv").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eta = 9\n")
        assert main(["--config", str(cfg), "tradeoff"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, command",
        [
            ("tradeoff_theta_h_min = 0", ["tradeoff"]),
            ("theta_b_rad = 0.1", ["search-n", "--sweep", "sigma"]),
        ],
    )
    def test_config_rejected_before_any_file_is_written(self, tmp_path, capsys, line, command):
        # both used to fail mid-run with a traceback, leaving a header-only CSV and no manifest
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key}=")
        assert not out.exists()

    def test_empty_out_dir_in_config_exit_code(self, tmp_path, monkeypatch, capsys):
        # used to exit 0, write into the working directory and print "wrote /tradeoff.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tradeoff_grid_size = 5\nout_dir =\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "tradeoff"]) == 2
        assert capsys.readouterr().err == "config error: line 2: empty value for 'out_dir'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_empty_out_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--out", "", "tradeoff"])
        assert exc.value.code == 2
        assert "--out must name a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_file_exit_code(self, tmp_path, capsys):
        # used to die with a FileExistsError traceback
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["--out", str(out), "tradeoff"]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert out.read_text() == ""

    def test_reports_written_path_under_out_dir(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tradeoff_grid_size = 5\n")
        assert main(["--config", str(cfg), "--out", f"{tmp_path / 'o'}/", "tradeoff"]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'o' / 'tradeoff.csv'} (5 rows)\n"

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "tradeoff"]) == 2

    def test_export_codebook(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("element_count = 16\nbeam_count = 16\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "export-codebook"]) == 0
        mapper = build_phase_mapper(load_config(cfg).array_config(), 16)
        expected = ["beam_id,element_id,phase_rad"] + [
            f"{b},{e},{mapper.phases[e - 1, b - 1]:.12g}"
            for b in range(1, 17)
            for e in range(1, 17)
        ]
        data = (tmp_path / "o" / "codebook.csv").read_bytes()
        assert data.decode().split("\n") == expected + [""]
        meta = json.loads((tmp_path / "o" / "export_codebook_manifest.json").read_text())
        assert meta["files"] == {"codebook.csv": 16 * 16}

    def test_export_phase_mapper_matches_cli_bytes(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "export-codebook", tmp_path)
        mapper = build_phase_mapper(small_cfg.array_config(), small_cfg.beam_count)
        export_phase_mapper(mapper, tmp_path / "library.csv")
        assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "codebook.csv").read_bytes()

    def test_large_export_runs_clean_in_dev_mode(self, tmp_path):
        # 1024 x 512 rows, at the helper-process threshold: no warning (an unclosed pipe or
        # file would raise a ResourceWarning) and no file but the CSV and the manifest
        from railbeam.codebook import _SPLIT_ROWS

        assert 1024 * 512 >= _SPLIT_ROWS
        cfg = tmp_path / "c.cfg"
        cfg.write_text("element_count = 1024\nbeam_count = 512\n")
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=str(Path(railbeam.__file__).parents[1]))
        argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "railbeam.cli"]
        argv += ["--config", str(cfg), "--out", str(out), "export-codebook"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
        meta = json.loads((out / "export_codebook_manifest.json").read_text())
        assert meta["files"] == {"codebook.csv": 1024 * 512}
        assert sorted(p.name for p in out.iterdir()) == ["codebook.csv", "export_codebook_manifest.json"]


class TestPackageExports:
    def test_all_names_are_unique_and_resolve(self):
        assert len(railbeam.__all__) == len(set(railbeam.__all__))
        missing = [name for name in railbeam.__all__ if not hasattr(railbeam, name)]
        assert missing == []

    def test_imports_load_only_what_is_used(self, tmp_path):
        # a fresh interpreter, so that modules this test session imported do not count
        code = f"""
import sys
import railbeam
assert not [m for m in sys.modules if m.startswith("railbeam.")], sorted(sys.modules)
import railbeam.cli
from railbeam.config import load_config
load_config(None)
assert "numpy" not in sys.modules, "import railbeam.cli and load_config"
assert not {{"subprocess", "array"}} & set(sys.modules), "import railbeam.cli and load_config"
for command in ("tradeoff", "search-n", "traverse"):
    assert railbeam.cli.main(["--out", {str(tmp_path)!r}, command]) == 0
    assert "numpy" not in sys.modules, command
    assert not {{"subprocess", "array"}} & set(sys.modules), command
"""
        env = dict(os.environ, PYTHONPATH=str(Path(railbeam.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestDeadCode:
    def test_every_top_level_definition_is_used(self):
        # a function or class that only its own tests name is dead to the program,
        # so uses count in src/ and perfbench/ (exports in __init__ included), not
        # tests/; module hooks such as __getattr__ are called by the interpreter
        repo = Path(__file__).resolve().parents[1]
        sources = [p for folder in ("src", "perfbench") for p in sorted((repo / folder).rglob("*.py"))]
        lines = {p: p.read_text().splitlines() for p in sources}
        unused = []
        for module in sorted((repo / "src" / "railbeam").glob("*.py")):
            for node in ast.parse(module.read_text()).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                    continue
                word = re.compile(rf"\b{node.name}\b")
                if not any(
                    word.search(line) and (path, j) != (module, node.lineno)
                    for path, text in lines.items()
                    for j, line in enumerate(text, 1)
                ):
                    unused.append(f"{module.name}:{node.lineno} {node.name}")
        assert unused == []
