import math
import re
from dataclasses import fields

import pytest

from railbeam.config import (
    ConfigError,
    ExperimentConfig,
    dbm_to_watts,
    kmh_to_mps,
    load_config,
)
from railbeam.geometry import coverage_interval


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_yields_declared_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "# nothing here\n"))
        assert cfg.d0_m == 50.0
        assert cfg.h0_m == 20.0
        assert cfg.v0_mps == 100.0
        assert cfg.L_m == 800.0
        assert cfg.path_loss_exp == 3.0
        assert cfg.carrier_frequency_hz == 2.4e9
        assert cfg.wavelength_m == pytest.approx(0.12491666666666666, rel=1e-15)
        assert cfg.spacing_m == pytest.approx(cfg.wavelength_m / 2, rel=1e-15)
        assert cfg.beam_count == 128
        assert cfg.element_count == 128
        assert cfg.n_max == 128
        assert cfg.noise_power_w == pytest.approx(10 ** (-13.4), rel=1e-15)
        assert cfg.p0_w == pytest.approx(dbm_to_watts(43.0), rel=1e-15)

    def test_none_path_is_all_defaults(self):
        cfg = load_config(None)
        assert cfg.d0_m == 50.0

    def test_beam_weights_default_to_array_gain(self):
        cfg = load_config(None)
        assert cfg.beam_weight_1 == pytest.approx(128.0, rel=1e-12)
        assert cfg.beam_weight_2 == pytest.approx(128.0, rel=1e-12)


class TestUnits:
    def test_dbm_conversion(self, tmp_path):
        cfg = load_config(write(tmp_path, "p0_dbm = 43\n"))
        assert cfg.p0_w == pytest.approx(19.952623149688797, rel=1e-12)
        assert 10.0 * math.log10(cfg.p0_w) + 30.0 == pytest.approx(43.0, rel=1e-12)

    def test_kmh_conversion(self, tmp_path):
        cfg = load_config(write(tmp_path, "v0_kmh = 360\n"))
        assert cfg.v0_mps == pytest.approx(100.0, rel=1e-15)
        assert kmh_to_mps(360.0) == pytest.approx(100.0, rel=1e-15)

    def test_degree_flag(self, tmp_path):
        cfg = load_config(write(tmp_path, "theta_b_deg = 90\n"))
        assert cfg.theta_b_rad == pytest.approx(math.pi / 2, rel=1e-15)

    def test_unit_pair_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1: 'p0_w' and 'p0_dbm' both set, pick one unit"):
            load_config(write(tmp_path, "p0_dbm = 43\np0_w = 20\n"))

    @pytest.mark.parametrize(
        "field_key, alternate",
        [
            ("theta_b_rad", "theta_b_deg"),
            ("bs_coverage_angle_rad", "bs_coverage_angle_deg"),
            ("v0_mps", "v0_kmh"),
            ("p0_w", "p0_dbm"),
            ("noise_power_w", "noise_power_dbm"),
        ],
    )
    def test_unit_pair_conflict_cites_alternate_line(self, tmp_path, field_key, alternate):
        text = f"{field_key} = 1\n{alternate} = 1\neta = 1\n"
        with pytest.raises(ConfigError, match=f"^line 2: '{field_key}' and '{alternate}' both set"):
            load_config(write(tmp_path, text))

    def test_noise_dbm(self, tmp_path):
        cfg = load_config(write(tmp_path, "noise_power_dbm = -104\n"))
        assert cfg.noise_power_w == pytest.approx(10 ** (-13.4), rel=1e-12)


class TestRejections:
    def test_eta_range(self, tmp_path):
        with pytest.raises(ConfigError, match="eta"):
            load_config(write(tmp_path, "eta = 3\n"))

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            load_config(write(tmp_path, "eta = 1\nbogus = 4\n"))

    def test_bad_value_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*bad value"):
            load_config(write(tmp_path, "eta = fast\n"))

    @pytest.mark.parametrize(
        "line",
        ["d0_m = nan", "L_m = inf", "sigma_m = nan", "p0_w = nan", "theta_b_rad = nan"],
    )
    def test_non_finite_value_reports_line(self, tmp_path, line):
        with pytest.raises(ConfigError, match="line 2.*not finite"):
            load_config(write(tmp_path, f"eta = 1\n{line}\n"))

    def test_non_finite_list_entry_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*not finite"):
            load_config(write(tmp_path, "p0_dbm_list = 37, nan\n"))

    @pytest.mark.parametrize("value", ["", "  ", "# nothing"])
    def test_empty_list_reports_line(self, tmp_path, value):
        # an empty eta_list used to write only tfds.csv
        with pytest.raises(ConfigError, match="line 2.*'eta_list'.*empty list"):
            load_config(write(tmp_path, f"eta = 1\neta_list = {value}\n"))

    @pytest.mark.parametrize("value", ["", "  ", "# nothing"])
    def test_empty_text_value_reports_line(self, tmp_path, value):
        # an empty out_dir used to send every file into the working directory
        with pytest.raises(ConfigError, match="line 2: empty value for 'out_dir'"):
            load_config(write(tmp_path, f"eta = 1\nout_dir = {value}\n"))

    @pytest.mark.parametrize("value", ["0.7,,0.9", "0.7, ,0.9", "0.7,0.9,", ",0.7"])
    def test_empty_list_entry_reports_line(self, tmp_path, value):
        # an empty entry used to be dropped
        with pytest.raises(ConfigError, match="line 1.*'p_th_list'.*empty entry"):
            load_config(write(tmp_path, f"p_th_list = {value}\n"))

    def test_seed_is_an_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*unknown key 'seed'"):
            load_config(write(tmp_path, "seed = 42\n"))

    @pytest.mark.parametrize("etas", ["0.8, 0.8", "0, 0.8, 0.8000001"])
    def test_eta_list_entries_sharing_a_csv_name(self, tmp_path, etas):
        # both entries print as 0.8 under {eta:g}, so one rate_region CSV would overwrite the other
        first, second = [float(e) for e in etas.split(",")][-2:]
        message = f"eta_list entries {first!r} and {second!r} share rate_region_eta0.8.csv"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write(tmp_path, f"eta_list = {etas}\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, "eta = 1\neta = 2\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            load_config(write(tmp_path, "eta 1\n"))

    def test_path_loss_range(self, tmp_path):
        with pytest.raises(ConfigError, match="path_loss_exp"):
            load_config(write(tmp_path, "path_loss_exp = 7\n"))

    def test_n_max_cannot_exceed_elements(self, tmp_path):
        with pytest.raises(ConfigError, match="n_max"):
            load_config(write(tmp_path, "n_max = 256\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "tradeoff_theta_h_min = 0\n",
            "tradeoff_theta_h_min = -0.1\n",
            "tradeoff_theta_h_min = 1.5\ntradeoff_theta_h_max = 1.5\n",
            "tradeoff_theta_h_min = 2\ntradeoff_theta_h_max = 1\n",
        ],
    )
    def test_tradeoff_width_range(self, tmp_path, text):
        with pytest.raises(ConfigError, match="tradeoff_theta_h_min"):
            load_config(write(tmp_path, text))

    def test_theta_b_outside_open_coverage(self, tmp_path):
        lo, hi = coverage_interval(load_config(None).array_config())
        for text in (f"theta_b_rad = {lo!r}", f"theta_b_rad = {hi!r}", "theta_b_rad = 0.1", "theta_b_deg = 170"):
            with pytest.raises(ConfigError, match=r"theta_b_rad=.* outside the open coverage interval \(0\.685"):
                load_config(write(tmp_path, text + "\n"))

    @pytest.mark.parametrize("line", ["bs_coverage_angle_rad = 0", "bs_coverage_angle_deg = -5"])
    def test_non_positive_station_angle_is_a_config_error(self, tmp_path, line):
        with pytest.raises(ConfigError, match="bs_coverage_angle must be positive"):
            load_config(write(tmp_path, line + "\n"))

    def test_coverage_invariant_surfaces_as_config_error(self, tmp_path):
        # spacing so large the covered angle drops below the station's
        with pytest.raises(ConfigError, match="coverage"):
            load_config(write(tmp_path, "spacing_m = 0.5\n"))


class TestGridsAndComments:
    def test_comma_list(self, tmp_path):
        cfg = load_config(write(tmp_path, "p_th_list = 0.6, 0.75, 0.9\n"))
        assert cfg.p_th_list == (0.6, 0.75, 0.9)

    def test_linspace_shorthand(self, tmp_path):
        cfg = load_config(write(tmp_path, "sigma_grid_m = 1:5:5\n"))
        assert cfg.sigma_grid_m == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_inline_comments(self, tmp_path):
        cfg = load_config(write(tmp_path, "eta = 1.5  # late entry\n"))
        assert cfg.eta == 1.5

    def test_builders_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path, "eta = 0.8\ntheta_b_deg = 80\n"))
        sc = cfg.encounter_scenario()
        assert sc.entry_offset == 0.8
        assert sc.avg_power == pytest.approx(dbm_to_watts(43.0), rel=1e-12)
        geo = cfg.rail_geometry()
        assert geo.train_angle == pytest.approx(math.radians(80.0), rel=1e-15)
        model = cfg.positioning_model()
        assert model.max_beam_count == 128
        array_cfg = cfg.array_config()
        assert array_cfg.element_count == 128


# One non-default value per ExperimentConfig field, as config text; every range check holds.
EVERY_FIELD = {
    "carrier_frequency_hz": ("3.5e9", 3.5e9),
    "wavelength_m": ("0.1", 0.1),
    "spacing_m": ("0.04", 0.04),
    "element_count": ("64", 64),
    "beam_count": ("48", 48),
    "design_constant": ("2.5", 2.5),
    "array_type_factor": ("4", 4),
    "bs_coverage_angle_rad": ("0.9", 0.9),
    "d0_m": ("40", 40.0),
    "h0_m": ("15", 15.0),
    "theta_b_rad": ("1.1", 1.1),
    "sigma_m": ("2.5", 2.5),
    "p_th": ("0.85", 0.85),
    "n_max": ("32", 32),
    "L_m": ("600", 600.0),
    "v0_mps": ("80", 80.0),
    "path_loss_exp": ("3.5", 3.5),
    "p0_w": ("10", 10.0),
    "noise_power_w": ("1e-13", 1e-13),
    "eta": ("0.5", 0.5),
    "beam_weight_1": ("50", 50.0),
    "beam_weight_2": ("60", 60.0),
    "theta_grid_size": ("11", 11),
    "sigma_grid_m": ("0.25, 0.5", (0.25, 0.5)),
    "p_th_list": ("0.75, 0.95", (0.75, 0.95)),
    "r2_grid_size": ("7", 7),
    "eta_list": ("0.25, 1.75", (0.25, 1.75)),
    "eta_grid_size": ("5", 5),
    "p0_dbm_list": ("40, 44", (40.0, 44.0)),
    "traverse_dt_s": ("0.005", 0.005),
    "tradeoff_theta_h_min": ("0.02", 0.02),
    "tradeoff_theta_h_max": ("3", 3.0),
    "tradeoff_grid_size": ("50", 50),
    "out_dir": ("results", "results"),
}
# alternate key -> (its text, the field it sets, the value it must set)
ALTERNATES = {
    "theta_b_deg": ("57", "theta_b_rad", math.radians(57.0)),
    "bs_coverage_angle_deg": ("50", "bs_coverage_angle_rad", math.radians(50.0)),
    "v0_kmh": ("288", "v0_mps", kmh_to_mps(288.0)),
    "p0_dbm": ("40", "p0_w", dbm_to_watts(40.0)),
    "noise_power_dbm": ("-100", "noise_power_w", dbm_to_watts(-100.0)),
}


class TestEveryKey:
    def test_every_field_loads_to_its_value(self, tmp_path):
        assert set(EVERY_FIELD) == {f.name for f in fields(ExperimentConfig)}
        defaults = load_config(None)
        for name, (_, value) in EVERY_FIELD.items():
            assert value != getattr(defaults, name), name
        text = "".join(f"{name} = {text}\n" for name, (text, _) in EVERY_FIELD.items())
        cfg = load_config(write(tmp_path, text))
        assert cfg == ExperimentConfig(**{name: value for name, (_, value) in EVERY_FIELD.items()})
        for name, (_, value) in EVERY_FIELD.items():
            assert type(getattr(cfg, name)) is type(value), name

    def test_every_alternate_sets_its_field_through_its_conversion(self, tmp_path):
        replaced = {field_key for _, field_key, _ in ALTERNATES.values()}
        lines = [f"{name} = {text}\n" for name, (text, _) in EVERY_FIELD.items() if name not in replaced]
        lines += [f"{key} = {text}\n" for key, (text, _, _) in ALTERNATES.items()]
        cfg = load_config(write(tmp_path, "".join(lines)))
        expected = {name: value for name, (_, value) in EVERY_FIELD.items()}
        expected.update({field_key: value for _, field_key, value in ALTERNATES.values()})
        assert cfg == ExperimentConfig(**expected)
