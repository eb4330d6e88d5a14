import ast
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import railbeam
from railbeam.cli import _COMMANDS, main
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

    def test_empty_out_rejected_before_any_file_is_written(self, small_cfg, tmp_path, monkeypatch):
        # Path("") is ".": it used to write tradeoff.csv and its manifest into the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="out must name a directory"):
            run_experiment(small_cfg, "tradeoff", "")
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]

    @pytest.mark.parametrize("experiment", ["rate-region", "symmetric"])
    @pytest.mark.parametrize("line, train", [("noise_power_w = 5e-324", 1), ("beam_weight_2 = 1e300", 2)])
    def test_overflowing_solo_snr_is_an_error(self, tmp_path, experiment, line, train):
        # symmetric used to write NaN rows, or rows reached through inf/NaN arithmetic, and
        # rate-region died on InfeasibleRateError or on converting a NaN to an integer
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "o"
        with pytest.raises(ValueError, match=f"^train {train}'s solo SNR .* is too large: its square overflows$"):
            run_experiment(load_config(path), experiment, out)
        assert all(len(p.read_text().splitlines()) == 1 for p in out.glob("*.csv"))

    def test_byte_determinism(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for name in ("tradeoff", "search-n", "rate-region", "symmetric"):
            run_experiment(small_cfg, name, a)
            run_experiment(small_cfg, name, b)
        for csv_a in a.glob("*.csv"):
            assert csv_a.read_bytes() == (b / csv_a.name).read_bytes()


# SHA-256 of every CSV the six subcommands write at the default config
DEFAULT_CSV_SHA256 = {
    "codebook.csv": "72720060a50d5904ecee7585ba8dd804ecd1d00ad69e4d559315655a7ecd954e",
    "d_vs_theta.csv": "7bbb05733371a2c9205b300b77a10ecd7924e0d9d9e922a597df278a066459e2",
    "directivity_vs_sigma.csv": "e1c8f91c617445d881b06a00e73c6e45c6ed2b5f99b001fc0db20226cc949ccf",
    "rate_region_eta0.8.csv": "035b777f475ba02d9c57c2260a40580d5797b7543c77e3170692498a453a8b51",
    "rate_region_eta0.csv": "4ab8ead26ed103a3368fdeb3f825f18e292dd9f5af22c3e66cd6392733b0ca2d",
    "rate_region_eta1.6.csv": "43e638640eaa69eea1a5311f37c62388c10cce75a9a48f3daf3d48fa7c478a24",
    "rate_region_eta2.csv": "e718b8d6b8480f5e970090801e19bab0fe850eeba5ec54f068a7223bef5f67dc",
    "symmetric.csv": "308be78d3f0653dc0f28663898cdf9eb246a032cc024aab42bbc25ba9607255c",
    "tfds.csv": "298685d293eb492d4fd33aabb8a9b55c3514fb174c39761e1f33cb9ed9697439",
    "tradeoff.csv": "c84c2a9df426c988fa5b115f40522f3c188c0b54b721e88ce0d49afaee20379a",
    "traverse.csv": "2fbc208a4e683a18e84ebc7e20441c05693b454c04fe87fba12789cfbb6e12df",
}


def test_default_csvs_keep_their_bytes(tmp_path, capsys):
    """Every subcommand at the default config writes the bytes pinned in ``DEFAULT_CSV_SHA256``.

    A refactor keeps these digests. A deliberate numerical change updates them, and its
    CHANGES.md line states the drift (max abs/rel) of each CSV that moved.
    """
    out = tmp_path / "o"
    for command in _COMMANDS:
        assert main(["--out", str(out), command]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == DEFAULT_CSV_SHA256


class TestRowRederivability:
    def test_tradeoff_rows_satisfy_identity(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "tradeoff", tmp_path)
        _, rows = read_rows(tmp_path / "tradeoff.csv")
        target = small_cfg.array_type_factor * small_cfg.design_constant / math.pi
        for width_s, gain_s in rows:
            assert float(width_s) * float(gain_s) == pytest.approx(target, rel=1e-10)

    def test_search_rows_reproduce_module_output(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "search-n", tmp_path)
        header, rows = read_rows(tmp_path / "d_vs_theta.csv")
        array_cfg = small_cfg.array_config()
        for row in rows[:: max(1, len(rows) // 7)]:
            values = dict(zip(header, row))
            result = search_beam_count(
                array_cfg,
                small_cfg.rail_geometry(float(values["theta_b_rad"])),
                small_cfg.positioning_model(sigma=small_cfg.sigma_m, p_th=float(values["p_th"])),
            )
            assert result.optimal_beam_count == int(values["n_star"])
            assert result.achieved_probability == pytest.approx(
                float(values["achieved_probability"]), rel=1e-9
            )
            assert int(values["infeasible"]) == int(not result.feasible)

    def test_duality_columns_are_reciprocal(self, small_cfg, tmp_path):
        run_experiment(small_cfg, "search-n", tmp_path)
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
        run_experiment(cfg, "search-n", tmp_path)
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
        run_experiment(cfg, "search-n", tmp_path)
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
        manifest = run_experiment(small_cfg, "search-n", tmp_path)
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

    def test_every_subcommand_runs_the_experiment_of_its_name(self):
        assert sorted(_COMMANDS) == sorted(EXPERIMENTS)

    def test_search_n_writes_both_sweeps_and_one_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "search-n"]) == 0
        files = {"d_vs_theta.csv": 2 * 7, "directivity_vs_sigma.csv": 2 * 3}
        assert sorted(p.name for p in out.iterdir()) == [*files, "search_n_manifest.json"]
        meta = json.loads((out / "search_n_manifest.json").read_text())
        assert (meta["experiment"], meta["files"]) == ("search-n", files)
        assert capsys.readouterr().out == "".join(f"wrote {out / name} ({rows} rows)\n" for name, rows in files.items())

    @pytest.mark.parametrize("line", ["eta = 0.8", "p_th = 0.9", "out_dir = results"])
    def test_keys_no_subcommand_reads_are_unknown(self, tmp_path, monkeypatch, capsys, line):
        # each used to load and change no output
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"tradeoff_grid_size = 5\n{line}\n")
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "tradeoff"]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"config error: line 2: unknown key {key!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    @pytest.mark.parametrize(
        "line, command, message",
        [
            ("p0_dbm = 1e300", "rate-region", "line 1: p0_dbm=1e+300 overflows p0_w"),
            ("noise_power_dbm = 1e300", "rate-region", "line 1: noise_power_dbm=1e+300 overflows noise_power_w"),
            ("p0_dbm_list = 37, 1e300", "symmetric", "p0_dbm_list entry 1e+300 gives p0_w=inf, outside (0, inf)"),
            ("p0_dbm_list = -1e300", "symmetric", "p0_dbm_list entry -1e+300 gives p0_w=0, outside (0, inf)"),
        ],
    )
    def test_power_overflowing_watts_exit_code(self, tmp_path, capsys, line, command, message):
        # the first three used to escape as an OverflowError traceback, the last as a ValueError
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eta_list = 9\n")
        assert main(["--config", str(cfg), "tradeoff"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, command",
        [
            ("tradeoff_theta_h_min = 0", ["tradeoff"]),
            ("theta_b_rad = 0.1", ["search-n"]),
            ("carrier_frequency_hz = 0", ["export-codebook"]),
            ("tradeoff_theta_h_min = 5e-324", ["tradeoff"]),
        ],
    )
    def test_config_rejected_before_any_file_is_written(self, tmp_path, capsys, line, command):
        # the first three used to fail mid-run with a traceback, leaving a header-only CSV and
        # no manifest; the last used to exit 0 with an infinite directivity in its first row
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
        key = line.split(" = ")[0]
        # an alternate key's conversion error also names its line
        assert re.match(rf"config error: (line 1: )?{key}=", capsys.readouterr().err)
        assert not out.exists()

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

    def test_reports_written_path_under_out(self, tmp_path, capsys):
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

    @pytest.mark.parametrize(
        "elements, beams, carrier_hz",
        [(128, 128, None), (16, 5, None), (7, 3, None), (1, 1, None), (1024, 513, None)]
        + [(128, 128, random.Random(seed).uniform(0.7e9, 6.0e9)) for seed in (1, 2, 3)],
        ids=["128x128", "16x5", "7x3", "1x1", "1024x513", "carrier-seed-1", "carrier-seed-2", "carrier-seed-3"],
    )
    def test_export_phase_mapper_matches_cli_bytes(self, tmp_path, elements, beams, carrier_hz):
        # the CLI's numpy-free columns and the library's numpy table print the same bytes
        text = f"element_count = {elements}\nbeam_count = {beams}\n"
        if carrier_hz is not None:
            text += f"carrier_frequency_hz = {carrier_hz!r}\n"
        (tmp_path / "c.cfg").write_text(text)
        cfg = load_config(tmp_path / "c.cfg")
        run_experiment(cfg, "export-codebook", tmp_path)
        mapper = build_phase_mapper(cfg.array_config(), cfg.beam_count)
        export_phase_mapper(mapper, tmp_path / "library.csv")
        assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "codebook.csv").read_bytes()

    def test_large_export_runs_clean_in_dev_mode(self, tmp_path):
        # 1024 x 512 rows, at the helper-process threshold: no warning (an unclosed pipe or
        # file would raise a ResourceWarning) and no file but the CSV and the manifest
        from railbeam.csvout import _SPLIT_ROWS

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
        large = tmp_path / "large.cfg"
        large.write_text("element_count = 1024\nbeam_count = 512\n")
        code = f"""
import sys
import railbeam
assert not [m for m in sys.modules if m.startswith("railbeam.")], sorted(sys.modules)
import railbeam.cli
from railbeam.config import load_config
load_config(None)
assert "numpy" not in sys.modules, "import railbeam.cli and load_config"
assert not {{"subprocess", "array"}} & set(sys.modules), "import railbeam.cli and load_config"
for command in ("tradeoff", "search-n", "traverse", "export-codebook"):
    assert railbeam.cli.main(["--out", {str(tmp_path)!r}, command]) == 0
    assert "numpy" not in sys.modules, command
    assert not {{"subprocess", "array"}} & set(sys.modules), command
# a table past the split threshold: only this subcommand may load subprocess and array
argv = ["--config", {str(large)!r}, "--out", {str(tmp_path)!r}, "export-codebook"]
assert railbeam.cli.main(argv) == 0
assert "numpy" not in sys.modules, "export-codebook 1024 x 512"
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
