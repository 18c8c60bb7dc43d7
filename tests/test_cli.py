import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nvdeer import fitting
from nvdeer.cli import load_config, main
from nvdeer.datasets import DataSet, read_summary
from nvdeer.errors import ConfigError, FitError

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"


def run(*argv):
    return main(list(argv))


def out_args(path):
    return ["--out", str(path)]


# ----------------------------------------------------------- simulate

def test_simulate_eseem_outputs(tmp_path):
    assert run("simulate", "-e", "eseem", "--out", str(tmp_path)) == 0
    ds = DataSet.read_csv(tmp_path / "eseem.csv")
    assert list(ds.columns) == ["t_us", "echo"]
    assert ds.meta["experiment"] == "eseem"
    assert len(ds.meta["config_hash"]) == 12
    summary = read_summary(tmp_path / "summary.ini")
    assert float(summary["modulation"]["gamma_n_mhz_per_t"]) == 10.708
    spec = json.loads((tmp_path / "eseem_plot.json").read_text())
    assert spec["series"][0]["file"] == "eseem.csv"


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run("simulate", "-e", "eseem", "--seed", "3",
                   "--noise", "0.01", "--out", str(d)) == 0
    assert (a / "eseem.csv").read_bytes() == (b / "eseem.csv").read_bytes()
    assert (a / "summary.ini").read_bytes() == \
        (b / "summary.ini").read_bytes()


def test_simulate_seed_changes_noise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "-e", "hahn", "--seed", "1", "--noise", "0.01",
               "--out", str(a)) == 0
    assert run("simulate", "-e", "hahn", "--seed", "2", "--noise", "0.01",
               "--out", str(b)) == 0
    ya = DataSet.read_csv(a / "hahn.csv").columns["echo"]
    yb = DataSet.read_csv(b / "hahn.csv").columns["echo"]
    assert not np.array_equal(ya, yb)


@pytest.mark.parametrize("experiment", ["photophysics", "deer-spectrum"])
def test_simulate_no_steady_state_exit_4(tmp_path, experiment, capsys):
    # so weak a pump never polarizes within the pulse budget
    assert run("simulate", "-e", experiment, "--set", "ensemble.beta=1e-7",
               "--set", "sweep.df_mhz=10", "--out", str(tmp_path)) == 4
    assert "no steady state" in capsys.readouterr().err


def test_simulate_photophysics_summary(tmp_path):
    assert run("simulate", "-e", "photophysics", "--out", str(tmp_path)) == 0
    ss = read_summary(tmp_path / "summary.ini")["steady_state"]
    assert abs(float(ss["n1"]) - 0.40) < 0.01
    assert abs(float(ss["n2"]) - 0.30) < 0.01
    assert int(ss["pulses_to_steady_state"]) <= 15
    history = DataSet.read_csv(tmp_path / "photophysics.csv")
    pops = np.column_stack([history.columns[f"n{i}"] for i in range(1, 8)])
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-9)


def test_simulate_diffusion_requires_count(tmp_path):
    assert run("simulate", "-e", "diffusion", "--out", str(tmp_path)) == 2
    # the NV density defaults to 0, which the volume cannot use
    assert run("simulate", "-e", "diffusion", "--out", str(tmp_path),
               "--set", "sample.count=10") == 2
    assert run("simulate", "-e", "diffusion", "--out", str(tmp_path),
               "--set", "sample.count=4736",
               "--set", "ensemble.n_nv_ppb=560") == 0
    d = read_summary(tmp_path / "summary.ini")["diffusion"]
    assert float(d["r_nv_nm"]) == pytest.approx(225.4, abs=0.5)
    assert 1.1 <= float(d["d_nm2_per_s"]) <= 1.3


# ------------------------------------------------------- configuration

def test_config_file_and_flag_layering(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "hahn",
                               "decay": {"t2_us": 50.0}}))
    out1 = tmp_path / "o1"
    assert run("simulate", "--config", str(cfg), "--out", str(out1)) == 0
    assert float(read_summary(out1 / "summary.ini")["decay"]["t2_us"]) == 50.0
    out2 = tmp_path / "o2"
    assert run("simulate", "--config", str(cfg), "--out", str(out2),
               "--set", "decay.t2_us=80") == 0
    assert float(read_summary(out2 / "summary.ini")["decay"]["t2_us"]) == 80.0


def test_config_hash_tracks_content(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", "-e", "hahn", "--out", str(a)) == 0
    assert run("simulate", "-e", "hahn", "--out", str(b),
               "--set", "decay.t2_us=80") == 0
    ha = read_summary(a / "summary.ini")["run"]["config_hash"]
    hb = read_summary(b / "summary.ini")["run"]["config_hash"]
    assert ha != hb and len(ha) == len(hb) == 12


@pytest.mark.parametrize("argv", [
    ("simulate", "-e", "hahn", "--set", "nosection.key=1"),
    ("simulate", "-e", "hahn", "--set", "decay.nokey=1"),
    ("simulate", "-e", "hahn", "--set", "decay.t2_us=notafloat"),
    ("simulate", "-e", "hahn", "--set", "decay.t2_us"),
    ("simulate", "-e", "hahn", "--set", "decay.t2_us=-4"),
])
def test_bad_overrides_exit_2(tmp_path, argv):
    assert run(*argv, "--out", str(tmp_path)) == 2


def test_bad_config_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "-e", "hahn", "--config", str(bad),
               "--out", str(tmp_path)) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"bogus": {"a": 1}}))
    assert run("simulate", "-e", "hahn", "--config", str(unknown),
               "--out", str(tmp_path)) == 2
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"sweep": {"n_points": 12.7}}))
    assert run("simulate", "-e", "hahn", "--config", str(fractional),
               "--out", str(tmp_path)) == 2
    assert not (tmp_path / "hahn.csv").exists()


def _assert_fit_key_rejected(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fit": {key: value}}))
    with pytest.raises(ConfigError):
        load_config("deer-spectrum", str(path))
    assert run("fit", "-e", "deer-spectrum", "--config", str(path),
               "--out", str(tmp_path / "fit")) == 2


def test_config_rejects_x_offset_mhz(tmp_path):
    # the X line sits where the field puts it; there is no offset key
    _assert_fit_key_rejected(tmp_path, "x_offset_mhz", -7.0)


@pytest.mark.parametrize("key,value", [
    ("n_peaks", 5), ("two_species", True), ("f_init_mhz", "1042.5")])
def test_config_rejects_removed_fit_keys(tmp_path, key, value):
    # the spectrum fit always fits five dips and the central P1/X group,
    # seeded from the data; none of these is a config key
    _assert_fit_key_rejected(tmp_path, key, value)


def test_missing_experiment_exit_2(tmp_path):
    assert run("simulate", "--out", str(tmp_path)) == 2


def test_fit_on_simulate_only_experiment_exit_2(tmp_path):
    assert run("fit", "-e", "photophysics", "--out", str(tmp_path)) == 2


# --------------------------------------------------------- fit pipeline

def test_fit_missing_data_exit_3(tmp_path):
    assert run("fit", "-e", "hahn", "--out", str(tmp_path)) == 3
    assert run("fit", "-e", "hahn", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path)) == 3


def test_fit_data_takes_one_file(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "hahn", "--out", str(sim)) == 0
    with pytest.raises(SystemExit) as exc:
        run("fit", "-e", "hahn", "--data", str(sim / "hahn.csv"),
            str(tmp_path / "nonexistent.csv"), "--out", str(tmp_path / "fit"))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_fit_flat_nutation_exit_4(tmp_path):
    t = np.linspace(0.0, 3.0, 60)
    DataSet(columns={"t_us": t, "p_flip": np.full_like(t, 0.3)},
            units={"t_us": "us", "p_flip": "1"}).write_csv(
                tmp_path / "rabi.csv")
    assert run("fit", "-e", "deer-rabi", "--data",
               str(tmp_path / "rabi.csv"), "--out", str(tmp_path)) == 4


def test_fit_hahn_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "hahn", "--noise", "0.01", "--seed", "5",
               "--set", "sweep.t_min_us=2", "--set", "sweep.t_max_us=700",
               "--out", str(sim)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "-e", "hahn", "--data", str(sim / "hahn.csv"),
               "--out", str(fit)) == 0
    hahn = read_summary(fit / "report.ini")["hahn"]
    assert float(hahn["t2_us"]) == pytest.approx(100.0, rel=0.05)
    assert float(hahn["n"]) == pytest.approx(1.5, abs=0.1)


def test_fit_eseem_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "eseem", "--noise", "0.005", "--seed", "8",
               "--set", "sweep.t_max_us=14", "--set", "sweep.n_points=200",
               "--set", "decay.t2_us=8", "--out", str(sim)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "-e", "eseem", "--data", str(sim / "eseem.csv"),
               "--out", str(fit)) == 0
    eseem = read_summary(fit / "eseem.ini")["eseem"]
    assert float(eseem["gamma_n_mhz_per_t"]) == pytest.approx(10.708,
                                                              abs=0.05)


def test_fit_decay_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "deer-decay", "--noise", "0.005",
               "--seed", "4", "--set", "sweep.t_min_us=5",
               "--set", "sweep.t_max_us=300", "--out", str(sim)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "-e", "deer-decay", "--data", str(sim / "decay.csv"),
               "--out", str(fit)) == 0
    est = read_summary(fit / "concentrations.ini")["estimate.p1"]
    assert float(est["value_ppb"]) == pytest.approx(200.0, rel=0.05)


def test_fit_saturation_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "saturation", "--noise", "0.02",
               "--seed", "6", "--out", str(sim)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "-e", "saturation", "--data",
               str(sim / "saturation.csv"), "--out", str(fit)) == 0
    sat = read_summary(fit / "saturation.ini")["saturation"]
    assert float(sat["f_sat"]) == pytest.approx(250.0, rel=0.05)
    assert float(sat["p_sat"]) == pytest.approx(0.5, rel=0.1)


def test_fit_epr_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "epr", "--set", "sweep.n_points=801",
               "--out", str(sim)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "-e", "epr", "--data", str(sim / "epr.csv"),
               "--out", str(fit),
               "--set", "sample.mass_mg=11",
               "--set", "sample.ref_di=1.0",
               "--set", "sample.ref_mass_mg=50.7",
               "--set", "sample.ref_n_ppm=68") == 0
    epr = read_summary(fit / "epr.ini")["epr"]
    di = float(epr["double_integral"])
    assert di == pytest.approx(200.0, rel=0.1)
    assert float(epr["n_ppb"]) == pytest.approx(
        68.0 * (di / 11.0) / (1.0 / 50.7) * 1e3, rel=1e-9)


def test_fit_epr_without_reference_exit_2(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "epr", "--out", str(sim)) == 0
    assert run("fit", "-e", "epr", "--data", str(sim / "epr.csv"),
               "--out", str(tmp_path)) == 2


def test_spectrum_fit_missing_rabi_stage(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "deer-spectrum", "--noise", "0.01",
               "--seed", "7", "--out", str(sim)) == 0
    rc = run("fit", "-e", "deer-spectrum", "--data",
             str(sim / "spectrum.csv"), "--out", str(tmp_path / "fit"))
    assert rc == 3
    assert "stage 2" in capsys.readouterr().err


def test_spectrum_fit_without_central_lines_exit_2(tmp_path, capsys):
    # the central fit places the P1 pair and the X line by the field; at
    # a field along the drive neither is drive-allowed
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "deer-spectrum", "--out", str(sim)) == 0
    rc = run("fit", "-e", "deer-spectrum", "--data",
             str(sim / "spectrum.csv"), "--set", "fit.rabi_mhz=2",
             "--set", "field.tilt_deg=90", "--out", str(tmp_path / "fit"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "field.tilt_deg" in err and "field.b0_mt" in err
    assert not (tmp_path / "fit" / "concentrations.ini").exists()


def _spectrum_fit(tmp_path, n_x_ppb, *noise):
    """simulate then fit a 230 ppb P1 spectrum; the concentrations.ini
    estimates of P1 and X."""
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert run("simulate", "-e", "deer-spectrum", *noise,
               "--set", "ensemble.n_p1_ppb=230",
               "--set", f"ensemble.n_x_ppb={n_x_ppb}", "--out", str(sim)) == 0
    assert run("fit", "-e", "deer-spectrum", "--data",
               str(sim / "spectrum.csv"), "--set", "fit.rabi_mhz=2.0",
               "--out", str(fit)) == 0
    conc = read_summary(fit / "concentrations.ini")
    return conc["estimate.p1"], conc["estimate.x"]


def test_spectrum_fit_noiseless_places_x(tmp_path):
    # the central pair and the X line placed by the field: no phantom X
    # on X-free data, and X recovered where it is
    p1, x = _spectrum_fit(tmp_path / "null", 0)
    assert float(x["value_ppb"]) <= 0.3
    assert x["is_upper_bound"] == "True"
    p1, x = _spectrum_fit(tmp_path / "x15", 15)
    assert abs(float(x["value_ppb"]) - 15.0) <= 0.5
    assert abs(float(p1["value_ppb"]) - 230.0) <= 1.0


def test_spectrum_fit_seed_23_no_phantom_x(tmp_path):
    # on this noise draw a line fit started away from its dip lands on
    # its window edge, biasing P1 low and making X out of noise
    p1, x = _spectrum_fit(tmp_path, 0, "--noise", "0.01", "--seed", "23")
    assert float(p1["value_ppb"]) == pytest.approx(230.0, rel=0.05)
    assert float(x["value_ppb"]) / float(x["uncertainty_ppb"]) < 1.645


def test_dip_search_matches_find_peaks(tmp_path, monkeypatch):
    # stage one's numpy dip search picks the dips find_peaks picked, on
    # the golden spectra and on 20 noisy simulated ones
    from scipy.signal import find_peaks

    searched = []
    search = fitting._prominent_minima

    def checked(y, prominence, distance):
        idx, prom = search(y, prominence, distance)
        ref, props = find_peaks(-y, prominence=prominence, distance=distance)
        np.testing.assert_array_equal(idx, ref)
        np.testing.assert_array_equal(prom, props["prominences"])
        searched.append(len(idx))
        return idx, prom

    monkeypatch.setattr(fitting, "_prominent_minima", checked)
    paths = sorted(GOLDEN.glob("deer-spectrum*/spectrum.csv"))
    for seed in range(20):
        out = tmp_path / str(seed)
        assert run("simulate", "-e", "deer-spectrum", "--noise", "0.01",
                   "--seed", str(seed), "--out", str(out)) == 0
        paths.append(out / "spectrum.csv")
    for path in paths:
        trace = DataSet.read_csv(path).to_trace("f_b_mhz", "i_deer")
        try:
            fitting._find_dips(trace.x, trace.y, 5)
        except FitError:
            pass
    assert len(searched) == len(paths) == 24
    assert min(searched) >= 5


_IMPORT_PROBE = """
import json, sys
out = sys.argv[1]
def loaded():
    return [m for m in ("scipy.signal", "scipy.optimize", "scipy.integrate")
            if m in sys.modules]
from nvdeer import cli
seen = {"import": loaded()}
assert cli.main(["simulate", "-e", "deer-spectrum", "--engine", "dynamics",
                 "--set", "ensemble.gamma_mhz=0",
                 "--set", "sweep.f_min_mhz=1041",
                 "--set", "sweep.f_max_mhz=1043",
                 "--set", "sweep.df_mhz=0.5", "--out", out + "/dyn"]) == 0
seen["simulate"] = loaded()
assert cli.main(["simulate", "-e", "deer-rabi", "--out", out + "/rabi"]) == 0
assert cli.main(["fit", "-e", "deer-rabi", "--data", out + "/rabi/rabi.csv",
                 "--out", out + "/fit"]) == 0
seen["fit"] = loaded()
print(json.dumps(seen))
"""


def test_import_leaves_out_scipy_signal(tmp_path):
    # simulate starts on numpy and scipy.linalg: scipy.optimize loads on
    # the first fit, scipy.integrate only on the ODE reference path, and
    # nothing loads scipy.signal
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ,
                                                PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["simulate"] == []
    assert seen["fit"] == ["scipy.optimize"]


def test_rabi_noisy_nutation_one_start(tmp_path, starts):
    # the FFT phase seeds the nutation's phi = pi, so one start converges
    assert run("simulate", "-e", "deer-rabi", "--noise", "0.01",
               "--seed", "21", "--out", str(tmp_path)) == 0
    assert run("fit", "-e", "deer-rabi", "--data", str(tmp_path / "rabi.csv"),
               "--out", str(tmp_path / "fit")) == 0
    assert len(starts) == 1
    rabi = read_summary(tmp_path / "fit" / "rabi.ini")["rabi"]
    assert rabi["converged"] == "True"
    assert abs(float(rabi["f"]) - 2.0) < 3.0 * float(rabi["f_err"])


def test_spectrum_simulate_zero_concentration_is_flat(tmp_path):
    assert run("simulate", "-e", "deer-spectrum", "--out", str(tmp_path),
               "--set", "ensemble.n_p1_ppb=0",
               "--set", "ensemble.n_x_ppb=0") == 0
    ds = DataSet.read_csv(tmp_path / "spectrum.csv")
    assert np.all(ds.columns["i_deer"] == 1.0)


def test_simulate_dynamics_engine_spectrum(tmp_path):
    # narrow grid over the X line and the central P1 lines, no broadening
    grid = ("--set", "sweep.f_min_mhz=1038", "--set", "sweep.f_max_mhz=1054",
            "--set", "sweep.df_mhz=0.5", "--set", "ensemble.gamma_mhz=0")
    for name, engine in (("ana", "analytic"), ("a", "dynamics"),
                         ("b", "dynamics")):
        assert run("simulate", "-e", "deer-spectrum", "--engine", engine,
                   *grid, "--out", str(tmp_path / name)) == 0
    i_ana = DataSet.read_csv(tmp_path / "ana" / "spectrum.csv").columns
    i_dyn = DataSet.read_csv(tmp_path / "a" / "spectrum.csv").columns
    assert np.max(np.abs(i_dyn["i_deer"] - i_ana["i_deer"])) <= 0.02
    for name in ("spectrum.csv", "summary.ini"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_dynamics_engine_refuses_line_width(tmp_path, capsys):
    # the propagator has no line width: a broadened spectrum is refused
    # with a configuration error that names the key, not made sharp
    assert run("simulate", "-e", "deer-spectrum", "--engine", "dynamics",
               "--set", "ensemble.gamma_mhz=1.2",
               "--out", str(tmp_path)) == 2
    assert "ensemble.gamma_mhz" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("argv", [
    ("--b0-mt", "5"),
    ("--set", "field.tilt_deg=90", "--set", "ensemble.n_p1_ppb=0")])
def test_simulate_spectrum_zero_density_needs_no_line(tmp_path, argv):
    # below ~10 mT the off-axis NV 2<->3 line is not drive-allowed, and
    # with the field along the drive no line is; a species of zero
    # density needs none
    assert run("simulate", "-e", "deer-spectrum", *argv,
               "--out", str(tmp_path)) == 0
    assert (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("argv,key", [
    (("--b0-mt", "5", "--set", "ensemble.n_nv_ppb=10"),
     "ensemble.n_nv_ppb"),
    (("--set", "field.tilt_deg=90"), "ensemble.n_p1_ppb")])
def test_simulate_spectrum_species_without_line_exit_2(tmp_path, capsys,
                                                       argv, key):
    # a species with a density but no drive-allowed line at the field is
    # a configuration error that names its density key
    assert run("simulate", "-e", "deer-spectrum", *argv,
               "--out", str(tmp_path)) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_simulate_dynamics_engine_rabi_without_x_line_exit_2(tmp_path,
                                                            capsys):
    # with the field along the drive no X line is drive-allowed, so the
    # dynamics engine has no carrier: the field keys are named
    assert run("simulate", "-e", "deer-rabi", "--engine", "dynamics",
               "--set", "field.tilt_deg=90", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "field.tilt_deg" in err and "field.b0_mt" in err
    assert not (tmp_path / "rabi.csv").exists()


def test_simulate_dynamics_engine_rabi_starts_at_zero(tmp_path):
    assert run("simulate", "-e", "deer-rabi", "--engine", "dynamics",
               "--set", "sweep.t_min_us=0", "--out", str(tmp_path)) == 0
    p = DataSet.read_csv(tmp_path / "rabi.csv").columns["p_flip"]
    assert p[0] == 0.0
    assert p.max() > 0.95


def test_spectrum_full_pipeline_and_report(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "deer-spectrum", "--noise", "0.01",
               "--seed", "11", "--set", "ensemble.n_x_ppb=13",
               "--dose", "1e11", "--out", str(sim)) == 0
    summary = read_summary(sim / "summary.ini")
    assert abs(float(summary["sigma"]["offaxis_23"]) - 0.866) < 0.01
    assert abs(float(summary["lines.x"]["f_mhz"]) - 1042.5) < 0.2

    fit = tmp_path / "fit"
    assert run("fit", "-e", "deer-spectrum", "--data",
               str(sim / "spectrum.csv"), "--set", "fit.rabi_mhz=2.0",
               "--dose", "1e11", "--out", str(fit)) == 0
    conc = read_summary(fit / "concentrations.ini")
    p1 = float(conc["estimate.p1"]["value_ppb"])
    assert p1 == pytest.approx(200.0, rel=0.05)
    x = float(conc["estimate.x"]["value_ppb"])
    assert x == pytest.approx(13.0, rel=0.35)
    assert (fit / "peaks.ini").exists()
    assert (fit / "report.ini").exists()

    capsys.readouterr()
    assert run("report", str(fit / "concentrations.ini")) == 0
    text = capsys.readouterr().out
    assert "[P1]" in text and "[X]" in text
    assert f"{p1:12.4g}".strip() in text


def test_report_without_inputs_exit_3():
    assert run("report") == 3


def test_report_writes_file(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "-e", "diffusion", "--out", str(sim),
               "--set", "sample.count=4736",
               "--set", "ensemble.n_nv_ppb=560") == 0
    out_file = tmp_path / "table.txt"
    assert run("report", str(sim / "summary.ini"), "--out",
               str(out_file)) == 0
    capsys.readouterr()
    assert "r_nv_nm" in out_file.read_text()


# -------------------------------------------------------------- selftest

def test_selftest_subset(capsys):
    assert run("selftest", "--checks", "sigma,detection-limit") == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2 checks passed" in out


def test_selftest_unknown_check_exit_2():
    assert run("selftest", "--checks", "bogus") == 2
