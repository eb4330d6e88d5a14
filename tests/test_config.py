import math

import pytest

from railbeam.config import (
    ConfigError,
    dbm_to_watts,
    kmh_to_mps,
    load_config,
    watts_to_dbm,
)


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
        assert watts_to_dbm(cfg.p0_w) == pytest.approx(43.0, rel=1e-12)

    def test_kmh_conversion(self, tmp_path):
        cfg = load_config(write(tmp_path, "v0_kmh = 360\n"))
        assert cfg.v0_mps == pytest.approx(100.0, rel=1e-15)
        assert kmh_to_mps(360.0) == pytest.approx(100.0, rel=1e-15)

    def test_degree_flag(self, tmp_path):
        cfg = load_config(write(tmp_path, "theta_b_deg = 90\n"))
        assert cfg.theta_b_rad == pytest.approx(math.pi / 2, rel=1e-15)

    def test_unit_pair_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="pick one unit"):
            load_config(write(tmp_path, "p0_dbm = 43\np0_w = 20\n"))

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

    def test_seed_is_an_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*unknown key 'seed'"):
            load_config(write(tmp_path, "seed = 42\n"))

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
