"""Config file round trips, diagnostics and the CSV column contract."""

import io

import pytest

from beamsim import (
    CSV_COLUMNS,
    ChannelModel,
    ConfigError,
    ExperimentConfig,
    GEOMETRIC,
    RAYLEIGH,
    Scheme,
    SweepAxis,
    parse_config,
    serialize_config,
    write_csv,
)
from beamsim.configio import parse_config_text
from beamsim.experiments import expand_sweep, figure_preset, result_row, run_experiment

BASIC = """
[experiment]
name = demo
k = 4
m = 4
rho_db = 34.0
trials = 50
master_seed = 7

[channel]
kind = rayleigh
n_t = 64
n_r = 64

[scheme]
kind = svd_phase
"""


def sample_configs():
    yield ExperimentConfig(
        name="a",
        channel=ChannelModel(RAYLEIGH, 32, 32),
        k=4,
        m=4,
        rho_db=34.0,
        scheme=Scheme("svd_phase"),
        trials=100,
        master_seed=5,
    )
    yield ExperimentConfig(
        name="b",
        channel=ChannelModel(GEOMETRIC, 64, 64, l_paths=5),
        k=3,
        m=5,
        rho_db=20.0,
        scheme=Scheme("mixed"),
        trials=10,
        master_seed=11,
    )
    yield ExperimentConfig(
        name="c",
        channel=ChannelModel(RAYLEIGH, 64, 64),
        k=4,
        m=4,
        rho_db=34.0,
        scheme=Scheme("quantized", bits=3),
    )
    yield ExperimentConfig(
        name="d",
        channel=ChannelModel(RAYLEIGH, 64, 64),
        k=4,
        m=4,
        rho_db=34.0,
        scheme=Scheme("selection", beta_percent=25.0),
        sweep=SweepAxis("beta_percent", (0.0, 10.0, 25.0, 50.0)),
    )
    yield ExperimentConfig(
        name="e",
        channel=ChannelModel(RAYLEIGH, 64, 4),
        k=4,
        m=4,
        rho_db=15.0,
        scheme=Scheme("mu_zf_hybrid"),
    )


class TestParse:
    def test_basic(self):
        cfg = parse_config_text(BASIC)
        assert cfg.name == "demo"
        assert cfg.channel == ChannelModel(RAYLEIGH, 64, 64)
        assert cfg.scheme == Scheme("svd_phase")
        assert cfg.trials == 50 and cfg.master_seed == 7

    @pytest.mark.parametrize("cfg", list(sample_configs()), ids=lambda c: c.name)
    def test_round_trip(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[swep\]"):
            parse_config_text(BASIC + "\n[swep]\nparam = n\nvalues = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="channel.bandwidth"):
            parse_config_text(BASIC.replace("n_r = 64", "n_r = 64\nbandwidth = 3"))

    def test_malformed_numeric_names_field(self):
        with pytest.raises(ConfigError, match="experiment.rho_db"):
            parse_config_text(BASIC.replace("rho_db = 34.0", "rho_db = fast"))

    def test_missing_section(self):
        text = BASIC.split("[scheme]")[0]
        with pytest.raises(ConfigError, match=r"\[scheme\]"):
            parse_config_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="experiment.k"):
            parse_config_text(BASIC.replace("k = 4\n", ""))

    def test_domain_error_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASIC.replace("kind = rayleigh", "kind = rician"))

    def test_sweep_values_parse(self):
        cfg = parse_config_text(BASIC + "\n[sweep]\nparam = n\nvalues = 8, 16, 32\n")
        assert cfg.sweep == SweepAxis("n", (8.0, 16.0, 32.0))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(BASIC)
        assert parse_config(path).name == "demo"


class TestSerialize:
    def test_exact_text_of_all_four_sections(self):
        cfg = ExperimentConfig(
            name="full",
            channel=ChannelModel(GEOMETRIC, 32, 16, l_paths=5),
            k=4,
            m=4,
            rho_db=20.5,
            scheme=Scheme("selection", beta_percent=25.0),
            trials=40,
            master_seed=3,
            sweep=SweepAxis("beta_percent", (0.0, 12.5)),
        )
        assert serialize_config(cfg) == (
            "[experiment]\n"
            "name = full\n"
            "k = 4\n"
            "m = 4\n"
            "rho_db = 20.5\n"
            "trials = 40\n"
            "master_seed = 3\n"
            "\n"
            "[channel]\n"
            "kind = geometric\n"
            "n_t = 32\n"
            "n_r = 16\n"
            "l_paths = 5\n"
            "spacing_over_wavelength = 0.5\n"
            "\n"
            "[scheme]\n"
            "kind = selection\n"
            "beta_percent = 25.0\n"
            "\n"
            "[sweep]\n"
            "param = beta_percent\n"
            "values = 0.0, 12.5\n"
        )


def _scheme_of(scheme):
    return lambda: parse_config_text(BASIC.replace("kind = svd_phase", scheme))


def _sweep_of(text, scheme="kind = svd_phase"):
    return lambda: expand_sweep(parse_config_text(BASIC.replace("kind = svd_phase", scheme) + text))


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: parse_config_text(BASIC + "\n[swep]\nparam = n\nvalues = 1\n"),
            "unknown config section [swep]",
        ),
        (
            lambda: parse_config_text(BASIC.replace("n_r = 64", "n_r = 64\nbandwidth = 3")),
            "unknown config key channel.bandwidth",
        ),
        (
            lambda: parse_config_text(BASIC.replace("rho_db = 34.0", "rho_db = fast")),
            "bad value for experiment.rho_db: 'fast' (could not convert string to float: 'fast')",
        ),
        (
            lambda: parse_config_text(BASIC.replace("k = 4\n", "")),
            "missing required key experiment.k",
        ),
        (
            lambda: parse_config_text(BASIC.split("[scheme]")[0]),
            "missing required section [scheme]",
        ),
        (
            _sweep_of("\n[sweep]\nparam = n\nvalues = 8.5\n"),
            "sweep value 8.5 for 'n' must be a positive integer",
        ),
        (
            _sweep_of("\n[sweep]\nparam = foo\nvalues = 1\n"),
            "unknown sweep parameter 'foo'; choose from ('n', 'n_t', 'n_r', 'rho_db', 'k', 'm',"
            " 'bits', 'beta_percent', 'l_paths', 'trials')",
        ),
        (
            _sweep_of("\n[sweep]\nparam = k\nvalues = 2\n", scheme="kind = mixed"),
            "sweeping k is ambiguous for mixed; sweep m instead",
        ),
        (
            _sweep_of(
                "\n[sweep]\nparam = beta_percent\nvalues = 100\n",
                scheme="kind = selection\nbeta_percent = 25",
            ),
            "cannot sweep beta_percent = 100: beta_percent must lie in [0, 100)",
        ),
        (
            _scheme_of("kind = quantized\nbits = 17"),
            "scheme: digital resolution needs 1 <= bits <= 16",
        ),
        (
            _scheme_of("kind = quantized\nbits = 0"),
            "scheme: digital resolution needs 1 <= bits <= 16",
        ),
        (
            _scheme_of("kind = selection\nbeta_percent = 100"),
            "scheme: beta_percent must lie in [0, 100)",
        ),
        (
            lambda: figure_preset("fig99"),
            "unknown figure id 'fig99'; choose from ('fig2', 'fig3', 'fig4', 'fig7', 'fig8',"
            " 'fig9', 'fig10')",
        ),
    ],
    ids=[
        "unknown_section",
        "unknown_key",
        "bad_value",
        "missing_key",
        "missing_section",
        "n_8.5",
        "unknown_sweep_param",
        "ambiguous_k_sweep",
        "sweep_value_out_of_domain",
        "bits_17",
        "bits_0",
        "beta_100",
        "unknown_figure",
    ],
)
def test_config_error_message(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


class TestCsv:
    def test_exact_column_order(self):
        assert CSV_COLUMNS == (
            "experiment",
            "sweep_param",
            "sweep_value",
            "scheme",
            "n_t",
            "n_r",
            "k",
            "m",
            "rho_db",
            "trials",
            "mean_rate",
            "std_err",
            "analytic_rate",
            "mean_gap",
            "inactive_fraction",
            "excluded",
        )

    def test_fig3_rows_have_analytic_column(self):
        rows = []
        for cfg in figure_preset("fig3", trials=3):
            if cfg.channel.n_t > 16:
                break
            res = run_experiment(cfg)
            rows.append(result_row(cfg, res.summary))
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "n"
            assert fields[12] != ""  # analytic companion populated

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            write_csv([{"bogus": 1}], io.StringIO())

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        path = tmp_path / "out.csv"
        path.write_text("earlier results\n")
        rows = [{"experiment": "first"}, {"experiment": Unprintable()}]
        with pytest.raises(RuntimeError):
            write_csv(rows, path)
        assert path.read_text() == "earlier results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
