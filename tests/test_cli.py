import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sppal import cli, medium, nlfield, optimizer
from sppal import radiator as rad
from sppal import transducer as td
from sppal.cli import main
from sppal.config import load_config, validate_config
from sppal.errors import ConfigError

COARSE_SOLVER = {
    "ppw_axial": 8.0, "ppw_radial": 8.0, "audio_ppw": 12.0,
    "truncation_db": 45.0, "tail_warn_fraction": 0.25,
    "z_start_m": 0.05, "z_stop_m": 1.2, "z_points": 25,
    "theta_max_deg": 20.0, "theta_points": 9,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_filled(self):
        cfg = validate_config({"source": {"kind": "piston", "radius_m": 0.05}})
        med = cfg.block("medium")
        assert med["temperature_c"] == 20.0
        assert med["relative_humidity"] == 0.70
        assert med["pressure_kpa"] == 101.325

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            validate_config({"medium": {"temprature_c": 20.0}})
        # options folded into library constants are rejected, not ignored
        for block, key in (("solver", "beat_safety"), ("solver", "radial_factor"),
                           ("solver", "refine_db"), ("optimizer", "crossover_rate"),
                           ("optimizer", "eta_crossover"),
                           ("optimizer", "eta_mutation"),
                           ("optimizer", "mutation_rate"),
                           ("pair", "f_audio_grid_hz")):
            with pytest.raises(ConfigError, match=rf"{block}\.{key}: unknown field"):
                validate_config({block: {key: 1.0}})

    def test_audio_frequency_default_is_in_the_schema(self):
        # the 1 kHz default is a schema value, so every config echo shows it
        assert validate_config({}).echo()["pair"]["f_audio_hz"] == 1000.0

    def test_defaults_are_the_library_defaults(self):
        cfg = validate_config({})
        solver, opt = cfg.block("solver"), cfg.block("optimizer")
        lib = nlfield.SolverSettings()
        shared = {f.name for f in fields(lib)} & set(solver)
        assert shared == {"ppw_axial", "ppw_radial", "audio_ppw",
                          "truncation_db", "tail_warn_fraction"}
        assert {k: solver[k] for k in shared} == {k: getattr(lib, k) for k in shared}
        nsga = optimizer.NsgaConfig()
        assert ((opt["pop"], opt["generations"], opt["seed"])
                == (nsga.pop, nsga.generations, nsga.seed))
        grid = optimizer.DEFAULT_SWEEP_GRID
        for key, name in (("d_uc", "sweep_d_uc_m"), ("f_u0", "sweep_f_u0_hz"),
                          ("mode_m", "sweep_mode_m"), ("r_p", "sweep_r_p_m"),
                          ("r_h", "sweep_r_h_m")):
            assert opt[name] == list(grid[key])
        assert opt["sweep_config"] == [c.value for c in grid["config"]]
        assert tuple(opt["f_dist_window_hz"]) == optimizer.F_DIST_WINDOW
        sweep = inspect.signature(optimizer.design_sweep).parameters
        assert opt["l_p_m"] == sweep["l_p"].default
        assert opt["drive_voltage_v"] == sweep["drive_voltage"].default
        assert tuple(opt["sweep_f_a_hz"]) == tuple(sweep["f_a_grid"].default)

    @pytest.mark.parametrize("path, allowed", [
        (("medium", "absorption"), medium.ABSORPTION_MODELS),
        (("source", "boundary"), [b.value for b in rad.Boundary]),
        (("source", "steps"), [s.value for s in rad.StepPolicy]),
        (("pair", "surrogate", "kind"), [k.value for k in td.PzgKind]),
        (("optimizer", "config"), [c.value for c in td.StackConfig]),
    ])
    def test_enumerations_are_the_library_values(self, path, allowed):
        # the config accepts exactly the library's values of each enumerated
        # field, and names them when it rejects another
        def errors(value):
            raw = {"source": {"kind": "plate", "d_uc_m": 0.45, "f_u0_hz": 60e3},
                   "pair": {"f_carrier_hz": 60e3,
                            "surrogate": {"kind": "DR", "f_r1_hz": 50e3,
                                          "f_r2_hz": 60e3, "f_anti_hz": 55e3}}}
            block = raw.setdefault(path[0], {})
            for key in path[1:-1]:
                block = block[key]
            block[path[-1]] = value
            try:
                validate_config(raw)
            except ConfigError as e:
                return str(e)
            return ""

        for value in allowed:
            assert errors(value) == ""
        name = ".".join(path)
        assert f"{name}: must be {' or '.join(map(repr, allowed))}" in errors("other")

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError, match="unknown block"):
            validate_config({"sources": {}})

    def test_all_violations_reported(self):
        try:
            validate_config({"medium": {"relative_humidity": 2.0},
                             "optimizer": {"pop": 7}})
        except ConfigError as e:
            msg = str(e)
            assert "relative_humidity" in msg and "pop" in msg
        else:
            pytest.fail("expected ConfigError")

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"medium": }')
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    @pytest.mark.parametrize("block, key, value", [
        ("source", "velocity_ms", 0.1),
        ("pair", "v1_ms", [0.1]),
        ("pair", "v2_ms", ["0.1", 0.0]),
        ("pair", "v1_ms", [True, 0.0]),
    ])
    def test_velocity_must_be_re_im_pair(self, block, key, value):
        raw = {"pair": {"f_carrier_hz": 60e3}}
        raw.setdefault(block, {})[key] = value
        with pytest.raises(ConfigError, match=rf"{block}\.{key}: must be \[re, im\]"):
            validate_config(raw)

    @pytest.mark.parametrize("key, value", [
        ("sweep_f_a_hz", ["1 kHz"]),
        ("sweep_d_uc_m", ["0.45"]),
        ("f_dist_window_hz", ["800", "8000"]),
        ("sweep_f_a_hz", [True]),
    ])
    def test_sweep_lists_must_be_numbers(self, tmp_path, capsys, key, value):
        # a string or a bool in a numeric list is a configuration error,
        # not a traceback or an audio frequency of 1 Hz
        raw = json.loads((ROOT / "tests" / "golden" / "sweep" / "config.json").read_text())
        raw["optimizer"][key] = value
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"optimizer.{key}: must be a list of numbers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_audio_band_must_be_numbers(self):
        # two strings in order passed the lo < hi rule
        with pytest.raises(ConfigError, match=r"cr\.audio_band_hz: must be a list of numbers"):
            validate_config({"cr": {"audio_band_hz": ["100", "6000"]}})

    def test_every_numeric_list_reported_at_once(self):
        keys = {"optimizer": ["f_dist_window_hz", "sweep_d_uc_m", "sweep_f_u0_hz",
                              "sweep_mode_m", "sweep_r_p_m", "sweep_r_h_m", "sweep_f_a_hz"],
                "cr": ["modal_freqs_hz", "audio_band_hz"]}
        raw = {block: {key: [1.0, "2"] for key in names} for block, names in keys.items()}
        raw["cr"]["modal_freqs_hz"] = 5e3
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        msg = str(info.value)
        for block, names in keys.items():
            for key in names:
                assert f"{block}.{key}: must be a list of numbers" in msg
        assert "lo < hi" not in msg

    def test_missing_block_for_command(self, tmp_path):
        cfg = write_cfg(tmp_path, {"pair": {"f_carrier_hz": 60e3}})
        rc = main(["pc", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_audio_commands_need_the_source_block(self, tmp_path, capsys):
        # the aperture comes from source.radius_m or source.d_uc_m and
        # f_u0_hz; no command picks one that no config key shows
        cfg = write_cfg(tmp_path, {"pair": {"f_carrier_hz": 60e3, "f_audio_hz": 1e3}})
        rc = main(["audio-pc", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "needs config block(s): source" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audio-pc", "audio-bp", "audio-fr"])
    def test_audio_commands_need_the_carrier(self, tmp_path, capsys, command):
        # a pair without f_carrier_hz is reported as the configuration
        # error it is, like a missing audio frequency, not as a traceback
        cfg = write_cfg(tmp_path, {"pair": {"f_audio_hz": 1000.0},
                                   "source": {"kind": "piston", "radius_m": 0.012}})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert (capsys.readouterr().err
                == f"error [{command}]: pair.f_carrier_hz is required\n")
        with pytest.raises(ConfigError, match="pair.f_carrier_hz is required"):
            cli.dispatch(command, load_config(cfg), tmp_path / "o")

    @pytest.mark.parametrize("command", ["audio-pc", "audio-bp", "cd-contour"])
    def test_curve_commands_take_one_audio_frequency(self, tmp_path, command):
        # a curve or a map is drawn at one audio frequency: a longer list is
        # rejected rather than cut to its first entry
        cfg = validate_config({
            "pair": {"f_carrier_hz": 60e3, "f_audio_hz": [700.0, 1400.0]},
            "source": {"kind": "piston", "radius_m": 0.012},
            "optimizer": {"sweep_d_uc_m": [0.45], "sweep_f_u0_hz": [60e3]}})
        with pytest.raises(ConfigError, match="takes one audio frequency, got 2"):
            cli.dispatch(command, cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("f_a", [[], None, "1 kHz", [700.0, "1400"], [True]])
    def test_audio_frequency_must_be_numbers(self, tmp_path, capsys, f_a):
        # an empty band is an error, not a header-only table
        cfg = write_cfg(tmp_path, {"pair": {"f_carrier_hz": 60e3, "f_audio_hz": f_a},
                                   "source": {"kind": "piston", "radius_m": 0.012}})
        assert main(["audio-fr", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "error [audio-fr]: pair.f_audio_hz must be a number or a non-empty list")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["pc", "bp"])
    def test_ultrasonic_commands_read_only_source_frequency(self, tmp_path, command):
        # pc and bp declare only the source block: a pair's carrier is not
        # their frequency
        cfg = validate_config({
            "source": {"kind": "piston", "radius_m": 0.0508},
            "pair": {"f_carrier_hz": 60e3}})
        with pytest.raises(ConfigError, match="source.f_u0_hz is required"):
            cli.dispatch(command, cfg, tmp_path / "o")


class TestCommands:
    def test_runtime_error_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "source": {"kind": "piston", "radius_m": 0.05, "f_u0_hz": 60e3},
        })
        assert main(["er", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "error [er]" in capsys.readouterr().err

    def test_cd_contour_uses_velocity_magnitude(self, tmp_path):
        data = []
        for v1 in ([0.0, 0.1], [0.1, 0.0]):
            cfg = write_cfg(tmp_path, {
                "pair": {"f_carrier_hz": 60e3, "f_audio_hz": 1000.0,
                         "v1_ms": v1},
                "optimizer": {"sweep_d_uc_m": [0.45], "sweep_f_u0_hz": [60e3]},
                "solver": COARSE_SOLVER,
            })
            out = tmp_path / f"cd{len(data)}"
            rc = main(["cd-contour", "--config", str(cfg), "--out", str(out)])
            doc = json.loads((out / "cd_contour.json").read_text())
            del doc["meta"]
            data.append((rc, doc))
        assert data[0] == data[1]
        assert np.isfinite(data[0][1]["l_pa_c_db"][0][0])

    def test_cd_contour_drives_carrier_with_v2(self, tmp_path):
        # the audio pressure is linear in the carrier velocity: five times
        # v2 adds 20*log10(5) dB and leaves the critical distance in place
        docs = []
        for v2 in ([0.1, 0.0], [0.5, 0.0]):
            cfg = write_cfg(tmp_path, {
                "pair": {"f_carrier_hz": 60e3, "f_audio_hz": 1000.0,
                         "v1_ms": [0.1, 0.0], "v2_ms": v2},
                "optimizer": {"sweep_d_uc_m": [0.45], "sweep_f_u0_hz": [60e3]},
                "solver": COARSE_SOLVER,
            })
            out = tmp_path / f"cd{len(docs)}"
            assert main(["cd-contour", "--config", str(cfg), "--out", str(out)]) == 0
            docs.append(json.loads((out / "cd_contour.json").read_text()))
        lift = docs[1]["l_pa_c_db"][0][0] - docs[0]["l_pa_c_db"][0][0]
        assert lift == pytest.approx(20.0 * np.log10(5.0), abs=1e-6)
        assert docs[1]["d_ac_m"] == docs[0]["d_ac_m"]

    def test_cd_contour_runs_at_its_one_audio_frequency(self, tmp_path):
        # a number and a one-entry list are the same frequency, and it
        # moves the map away from the 1 kHz default
        maps = []
        for f_a in (None, 2000.0, [2000.0]):
            pair = {} if f_a is None else {"f_audio_hz": f_a}
            cfg = write_cfg(tmp_path, {
                "pair": pair,
                "optimizer": {"sweep_d_uc_m": [0.45], "sweep_f_u0_hz": [60e3]},
                "solver": COARSE_SOLVER,
            })
            out = tmp_path / f"cd{len(maps)}"
            assert main(["cd-contour", "--config", str(cfg), "--out", str(out)]) == 0
            doc = json.loads((out / "cd_contour.json").read_text())
            maps.append((doc["f_a_hz"], doc["l_pa_c_db"], doc["d_ac_m"]))
        assert maps[0][0] == 1000.0
        assert maps[1] == maps[2] and maps[1][0] == 2000.0
        assert maps[1][1] != maps[0][1]

    def test_cd_contour_rejects_a_surrogate(self, tmp_path):
        # a surrogate is centred on one carrier and cannot drive the map's
        # carrier grid
        cfg = validate_config({"pair": {"f_carrier_hz": 60e3, "surrogate": {
            "kind": "SR", "f_r2_hz": 60e3}}})
        with pytest.raises(ConfigError, match="'cd-contour' takes no pair.surrogate"):
            cli.dispatch("cd-contour", cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("f_a", [[], [-500.0]])
    def test_sweep_checks_its_audio_grid_first(self, tmp_path, capsys, monkeypatch, f_a):
        # a grid no cell can be scored on ends the run before any cell's
        # NSGA-II work, as a run-time error and not a traceback
        def no_cell(*args):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(optimizer, "DesignContext", no_cell)
        raw = json.loads((ROOT / "tests" / "golden" / "sweep" / "config.json").read_text())
        raw["optimizer"]["sweep_f_a_hz"] = f_a
        cfg = write_cfg(tmp_path, raw)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error [sweep]: audio grid {f_a} must be non-empty, finite and > 0")

    def test_pc_piston_peak_near_cd(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "medium": {"absorption": "none"},
            "source": {"kind": "piston", "d_uc_m": 0.45, "f_u0_hz": 60e3},
            "solver": {"z_start_m": 0.32, "z_stop_m": 0.59, "z_points": 55},
        })
        out = tmp_path / "out"
        rc = main(["pc", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "pc.csv")
        assert header == ["abscissa", "re_p", "im_p", "spl_db"]
        z = np.array([float(r[0]) for r in rows])
        spl = np.array([float(r[3]) for r in rows])
        assert z[np.argmax(spl)] == pytest.approx(0.45, abs=0.01)

    def test_bp_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "source": {"kind": "piston", "radius_m": 0.0508, "f_u0_hz": 60e3},
            "solver": {"theta_max_deg": 10.0, "theta_points": 21, "range_m": 1.0},
        })
        out = tmp_path / "out"
        assert main(["bp", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "bp.json").read_text())
        assert doc["meta"]["kind"] == "beam"
        assert len(doc["spl_db"]) == 21

    def test_er_command(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "source": {"kind": "plate", "d_uc_m": 0.45, "f_u0_hz": 60e3,
                       "mode_m": 8},
            "solver": {"f_points": 5},
        })
        out = tmp_path / "out"
        assert main(["er", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "er.csv")
        ers = [float(r[1]) for r in rows]
        assert all(-23.0 < e < -15.0 for e in ers)

    def test_audio_fr_surrogates(self, tmp_path):
        base = {
            "source": {"kind": "piston", "radius_m": 0.012},
            "pair": {"f_carrier_hz": 60e3, "f_audio_hz": [700.0, 1400.0],
                     "surrogate": {"kind": "DR", "gain": 4e11,
                                   "f_r1_hz": 58.6e3, "f_r2_hz": 60e3,
                                   "f_anti_hz": 59.3e3, "loss_factor": 0.05}},
            "solver": dict(COARSE_SOLVER, z_stop_m=0.6),
        }
        out_dr = tmp_path / "dr"
        cfg = write_cfg(tmp_path, base, "dr.json")
        assert main(["audio-fr", "--config", str(cfg), "--out", str(out_dr)]) == 0
        header, rows = read_csv(out_dr / "audio_fr.csv")
        assert header == ["f_a_hz", "spl_db", "d_ac_m"]
        assert len(rows) == 2

        # single-resonance surrogate with the carrier velocity matched:
        # the dual-resonance device lifts the low audio band
        freqs = __import__("numpy").arange(55e3, 62e3, 10.0)
        dr = td.pzg_frf(td.PzgKind.DR, 4e11, 58.6e3, 60e3, 59.3e3, 0.05, freqs)
        sr_gain = abs(dr.interp(60e3)) / abs(
            td.pzg_frf(td.PzgKind.SR, 1.0, None, 60e3, None, 0.05,
                       freqs).interp(60e3))
        sr_cfg = dict(base)
        sr_cfg["pair"] = dict(base["pair"],
                              surrogate={"kind": "SR", "gain": sr_gain,
                                         "f_r2_hz": 60e3,
                                         "loss_factor": 0.05})
        out_sr = tmp_path / "sr"
        cfg2 = write_cfg(tmp_path, sr_cfg, "sr.json")
        assert main(["audio-fr", "--config", str(cfg2), "--out", str(out_sr)]) == 0
        _, rows_sr = read_csv(out_sr / "audio_fr.csv")
        for row_dr, row_sr in zip(rows, rows_sr):
            assert float(row_dr[1]) > float(row_sr[1])

    def test_surrogate_velocities_exact_off_grid(self):
        # 1234.5 Hz puts the sideband between the 10 Hz nodes a sampled
        # response would interpolate over; the pair must carry the
        # closed-form pole-zero response at both primaries
        sur = {"kind": "DR", "gain": 4e11, "f_r1_hz": 58.6e3, "f_r2_hz": 60e3,
               "f_anti_hz": 59.3e3, "loss_factor": 0.05}
        cfg = validate_config({"pair": {"f_carrier_hz": 60e3, "surrogate": sur},
                               "source": {"kind": "piston", "radius_m": 0.012}})
        pair = cli._pair_from_config(cfg, cfg.medium(), 1234.5)
        assert pair.f_u1 == 60e3 - 1234.5
        for f, v in ((pair.f_u1, pair.v1), (pair.f_u2, pair.v2)):
            (want,) = td.pzg_frf(td.PzgKind.DR, 4e11, 58.6e3, 60e3, 59.3e3,
                                 0.05, [f]).center_velocity
            assert v == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cr_screen(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "cr": {"modal_freqs_hz": [400.0, 2000.0, 5000.0],
                   "audio_band_hz": [100.0, 6000.0], "tol_hz": 100.0},
        })
        out = tmp_path / "out"
        assert main(["cr-screen", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "cr_screen.json").read_text())
        assert doc["flagged_f_a_hz"] == [400.0, 2000.0, 5000.0]

    @pytest.mark.parametrize("flag, written", [
        ([], ["cr_screen.csv"]),
        (["--format", "both"], ["cr_screen.csv", "cr_screen.json"]),
        (["--format", "json"], ["cr_screen.json"]),
    ])
    def test_format_flag_overrides_config(self, tmp_path, flag, written):
        cfg = write_cfg(tmp_path, {
            "cr": {"modal_freqs_hz": [400.0], "audio_band_hz": [100.0, 6000.0]},
            "output": {"formats": ["csv"]},
        })
        out = tmp_path / "out"
        assert main(["cr-screen", "--config", str(cfg), "--out", str(out), *flag]) == 0
        assert sorted(p.name for p in out.iterdir()) == written

    def test_pareto_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "optimizer": {"pop": 8, "generations": 2, "seed": 5,
                          "config": "full"},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["pareto", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pareto", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "pareto.csv").read_bytes() == (out2 / "pareto.csv").read_bytes()
        assert (out1 / "pareto.json").read_bytes() == (out2 / "pareto.json").read_bytes()

    def test_seed_flag_changes_output_metadata(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "optimizer": {"pop": 8, "generations": 1, "seed": 5,
                          "config": "full"},
        })
        out = tmp_path / "o3"
        assert main(["pareto", "--config", str(cfg), "--out", str(out),
                     "--seed", "77"]) == 0
        doc = json.loads((out / "pareto.json").read_text())
        assert doc["meta"]["seed"] == 77


@pytest.mark.slow
class TestSweepCli:
    def test_sweep_byte_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "optimizer": {"pop": 8, "generations": 2, "seed": 13,
                          "sweep_d_uc_m": [0.45], "sweep_f_u0_hz": [60e3],
                          "sweep_mode_m": [8], "sweep_config": ["full"],
                          "sweep_r_p_m": [9e-3], "sweep_r_h_m": [0.75e-3],
                          "sweep_f_a_hz": [1000.0],
                          "f_dist_window_hz": [800.0, 8000.0]},
            "solver": COARSE_SOLVER,
        })
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        header, rows = read_csv(out1 / "sweep.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["flags"] in ("", "no_design_in_window")


ROOT = Path(__file__).resolve().parents[1]


def _run_child(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True, timeout=300).stdout


def test_import_sppal_loads_no_numpy():
    # the package exports load lazily, so the CLI entry point can pin the
    # BLAS threads before numpy starts
    code = "import sys, sppal; print('numpy' in sys.modules, sppal.Medium.__module__)"
    assert _run_child(code).split() == ["False", "sppal.medium"]


def test_import_sppal_cli_starts_no_thread():
    # the solver's worker thread is started per build, never at import
    code = "import threading, sppal.cli; print(threading.active_count())"
    assert _run_child(code).split() == ["1"]


def test_golden_runs_import_no_scipy_optimize(tmp_path):
    # a child process: this one imports scipy.optimize for its oracles
    code = """
import json, sys
from pathlib import Path
from sppal import cli
from sppal.config import load_config
golden, out = Path(sys.argv[1]), Path(sys.argv[2])
statuses = [cli.dispatch(command, load_config(golden / case / "config.json"), out / case,
                         ("csv",))[0]
            for case, command in (("pareto_full", "pareto"), ("audio_pc", "audio-pc"))]
print(json.dumps({"statuses": statuses, "scipy": sorted(
    m for m in sys.modules if m.startswith("scipy.") and m.count(".") == 1)}))
"""
    report = json.loads(_run_child(code, ROOT / "tests" / "golden", tmp_path))
    assert report["statuses"] == [0, 3]
    assert "scipy.optimize" not in report["scipy"]
    assert "scipy.special" in report["scipy"]
