import json
from pathlib import Path

import numpy as np
import pytest

from test_pins import bench_inputs, pins
from triband.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_bands_csv(tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code = main(
        ["bands", "--v", "3,1.5,0", "--m", "1", "--kmax", "5", "--nk", "400", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,e_minus,e_mid,e_plus,panel_class"
    assert len(lines) == 401
    assert (tmp_path / "bands.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["command"] == "bands"


def test_bands_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bands", "--v", "1,2,3", "--nk", "50", "--out", str(a)])
    main(["bands", "--v", "1,2,3", "--nk", "50", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bands_uniform_preset_shifted(tmp_path):
    out = tmp_path / "b.csv"
    main(["bands", "--v", "2,2,2", "--kmax", "1", "--nk", "3", "--out", str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    k0 = [float(x) for x in rows[1].split(",")[:4]]
    assert k0[0] == 0.0
    assert k0[2] == pytest.approx(2.0, abs=1e-10)
    assert k0[3] == pytest.approx(3.0, abs=1e-10)


def test_mass_rescales_the_wave_numbers(tmp_path):
    # E(m; V, k) = m E(1; V/m, k/m): V = (6, 3, 0) and |k| <= 10 at m = 2 are
    # V = (3, 1.5, 0) and |k| <= 5 in units of m, the same rows
    scaled, plain = tmp_path / "scaled.csv", tmp_path / "plain.csv"
    grid = ["--nk", "41", "--out"]
    assert main(["bands", "--v", "6,3,0", "--m", "2", "--kmax", "10", *grid, str(scaled)]) == 0
    assert main(["bands", "--v", "3,1.5,0", "--kmax", "5", *grid, str(plain)]) == 0
    assert scaled.read_bytes() == plain.read_bytes()


def test_bands_off_the_planes_reach_large_k(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", "--v", "3,0.7,0", "--kmax", "1e120", "--nk", "5", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [float(r[2]) for r in rows if r[0] != "0"] == [1.5] * 4  # e_mid at va


def test_wavefunction_of_a_level_next_to_va(tmp_path):
    # seed 42, case 238 of random_configs: a level within 1e-6 of va, whose
    # scan residual is 4.6e-4, goes through the solution check
    argv = [
        "boundstates", "--v=-2.5520349844985457,-3.387459371480759,4.400190108075147",
        "--l", "2.686368720095624", "--out", str(tmp_path / "levels.csv"),
        "--wavefunction", str(tmp_path / "wf.csv"),
    ]
    assert main(argv) == 0
    assert (tmp_path / "wf.csv").stat().st_size > 0


def test_flat_command(capsys):
    code, out, err = run(["flat", "--v11", "-0.5", "--v33", "1.5", "--m", "1"], capsys)
    assert code == 0
    assert "on_B=true" in out
    assert "flat_energy=0.5" in out


def test_boundstates_preset(tmp_path):
    out = tmp_path / "bs.csv"
    code = main(["boundstates", "--preset", "fig3", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    vals = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    assert vals["+"] == pytest.approx(0.56, abs=0.01)
    assert vals["-"] == pytest.approx(-0.65, abs=0.01)


def test_mass_rescales_the_inputs_only(tmp_path):
    # E(m; V, l) = m E(1; V/m, m l): fig3 (V = 3, l = 0.5) given at m = 2.5
    # is the same input in units of m and writes the same bytes
    fig3, scaled = tmp_path / "fig3.csv", tmp_path / "scaled.csv"
    assert main(["boundstates", "--preset", "fig3", "--out", str(fig3)]) == 0
    argv = ["boundstates", "--v", "7.5,7.5,7.5", "--m", "2.5", "--l", "0.2", "--out", str(scaled)]
    assert main(argv) == 0
    assert scaled.read_bytes() == fig3.read_bytes()


def test_edges_override_the_preset_width(tmp_path):
    # a preset's l is a default: --x1/--x2 given with fig3 place its rectangle
    fig3, edges = tmp_path / "fig3.csv", tmp_path / "edges.csv"
    assert main(["boundstates", "--preset", "fig3", "--out", str(fig3)]) == 0
    argv = ["boundstates", "--preset", "fig3", "--x1", "-0.25", "--x2", "0.25"]
    assert main([*argv, "--out", str(edges)]) == 0
    assert edges.read_bytes() == fig3.read_bytes()


def test_boundstates_flags_override_the_preset(tmp_path):
    fig3, preset, plain = (tmp_path / f"{n}.csv" for n in ("fig3", "preset", "plain"))
    flags = ["--v", "1,1,1", "--m", "2", "--l", "7"]
    assert main(["boundstates", "--preset", "fig3", "--out", str(fig3)]) == 0
    assert main(["boundstates", "--preset", "fig3", *flags, "--out", str(preset)]) == 0
    assert main(["boundstates", *flags, "--out", str(plain)]) == 0
    assert preset.read_bytes() == plain.read_bytes()
    assert preset.read_bytes() != fig3.read_bytes()


def test_sweep_flags_override_the_preset(tmp_path):
    fig6, preset, plain = (tmp_path / f"{n}.csv" for n in ("fig6", "preset", "plain"))
    grid = ["--vmin", "2", "--vmax", "3", "--nv", "3"]
    assert main(["sweep", "--preset", "fig6", *grid, "--out", str(fig6)]) == 0
    assert main(["sweep", "--preset", "fig6", "--l", "5", *grid, "--out", str(preset)]) == 0
    pencil = ["--vertex", "P2", "--alphas", "1,1,-1", "--l", "5"]
    assert main(["sweep", *pencil, *grid, "--out", str(plain)]) == 0
    assert preset.read_bytes() == plain.read_bytes()
    assert preset.read_bytes() != fig6.read_bytes()
    manifest = json.loads((tmp_path / "preset.csv.manifest.json").read_text())
    assert manifest["pencil"] == {"vertex": "P2", "alphas": [1.0, 1.0, -1.0], "l": 5.0}


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "table1", "--g", "5", "--set", "W1"],
        ["--preset", "table1", "--family", "l2"],
        ["--preset", "fig10", "--n", "1"],
        ["--preset", "fig10", "--parity", "+"],
        ["--preset", "fig11", "--converge"],
        ["--preset", "fig11", "--l0", "0.5", "--levels", "3"],
    ],
)
def test_pointlimit_preset_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pointlimit", *argv])
    assert exc.value.code == 1
    assert "reads none of" in capsys.readouterr().err


def test_sweep_preset_manifest(tmp_path):
    out = tmp_path / "sw.csv"
    code = main(
        ["sweep", "--preset", "fig6", "--vmin", "2", "--vmax", "3", "--nv", "12", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "sw.csv.manifest.json").read_text())
    assert manifest["spectrum_type"] == "H1"
    assert manifest["pencil"]["l"] == 2.0
    header = out.read_text().splitlines()[0]
    assert header == "V,parity,E_b,branch_id,k2_sign"


def test_pointlimit_ladder(tmp_path):
    out = tmp_path / "pl.csv"
    code = main(
        ["pointlimit", "--family", "l2", "--set", "H2", "--g", "2", "--n", "0..3", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    e0 = float(rows[0].split(",")[1])
    assert e0 == pytest.approx(1 / np.sqrt(2), rel=1e-10)


def test_pointlimit_table_preset(tmp_path):
    out = tmp_path / "table1.json"
    code = main(["pointlimit", "--preset", "table1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    sets = {(e["set"], e["family"]) for e in payload["entries"]}
    assert ("H2", "l2") in sets and ("W1", "delta") in sets and ("H1", "l23") in sets
    for entry in payload["entries"]:
        lam = np.array(entry["lambda"])
        assert np.linalg.det(lam) == pytest.approx(1.0, abs=1e-10)


def test_pointlimit_table_preset_to_stdout(tmp_path, monkeypatch, capsys):
    # "-" is stdout, as for every CSV: the JSON of the file, and no file or manifest
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["pointlimit", "--preset", "table1", "--out", "-"], capsys)
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    assert main(["pointlimit", "--preset", "table1", "--out", "table1.json"]) == 0
    assert out == (tmp_path / "table1.json").read_text()


def test_sweep_without_levels_writes_the_header(tmp_path):
    # zero strengths hold no bound state at any V
    out = tmp_path / "none.csv"
    argv = ["sweep", "--alphas", "0,0,0", "--vmin", "1", "--vmax", "2", "--nv", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == b"V,parity,E_b,branch_id,k2_sign\r\n"


def test_pointlimit_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "pointlimit", "--family", "delta", "--set", "H2", "--g", "2",
            "--converge", "--l0", "0.25", "--levels", "4", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,l,V,E_b,error,order"
    assert len(lines) == 5
    errs = [float(r.split(",")[4]) for r in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_pointlimit_fig_presets(tmp_path):
    f10 = tmp_path / "f10.csv"
    assert main(["pointlimit", "--preset", "fig10", "--nx", "64", "--out", str(f10)]) == 0
    assert f10.read_text().splitlines()[0] == "parity,E_b,x,psi1,psi2,psi3"
    f11 = tmp_path / "f11.csv"
    assert main(["pointlimit", "--preset", "fig11", "--nx", "64", "--out", str(f11)]) == 0
    rows = f11.read_text().strip().splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"0", "1", "2", "3"}


def test_sweep_rescales_strengths_like_boundstates(tmp_path):
    # --m 2 makes V = 1 the strength 0.5 m: the sweep point and the one
    # rectangle are the same physical input and hold the same levels
    sw, bs = tmp_path / "sw.csv", tmp_path / "bs.csv"
    common = ["--l", "2", "--m", "2", "--out"]
    sweep_args = ["--vertex", "P1", "--alphas", "0,1,0", "--vmin", "1", "--vmax", "1", "--nv", "1"]
    assert main(["sweep", *sweep_args, *common, str(sw)]) == 0
    assert main(["boundstates", "--v", "0,1,0", *common, str(bs)]) == 0

    def column(path, name):
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index(name)
        return [float(line.split(",")[col]) for line in lines[1:]]

    assert set(column(sw, "V")) == {0.5}
    assert len(column(bs, "E_b")) >= 2
    assert column(sw, "E_b") == column(bs, "E_b")


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--v", "1,2,3", "--nk", "5"],
        ["boundstates", "--preset", "fig3", "--nx", "5", "--wavefunction", "{dir}/wf.csv"],
        ["sweep", "--preset", "fig6", "--vmin", "2", "--vmax", "3", "--nv", "2"],
        ["pointlimit", "--family", "l2", "--set", "H2", "--g", "2", "--n", "0..1"],
        ["pointlimit", "--set", "H2", "--g", "2", "--converge", "--levels", "2"],
        ["pointlimit", "--preset", "fig10", "--nx", "8"],
        ["pointlimit", "--preset", "fig11", "--nx", "8"],
        ["pointlimit", "--preset", "table1"],
    ],
    ids=["bands", "boundstates", "sweep", "ladder", "converge", "fig10", "fig11", "table1"],
)
def test_every_file_output_gets_a_manifest(argv, tmp_path):
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    outputs = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json"))
    assert outputs
    for name in outputs:
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["parameters"]["out"] == str(tmp_path / "out")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bands"])  # missing required --v
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["boundstates", "--m", "0"],
        ["boundstates", "--m", "-1"],
        ["boundstates", "--l", "0"],
        ["boundstates", "--x1", "0.3"],  # --x2 missing
        ["boundstates", "--x2", "0.3"],  # --x1 missing
        ["boundstates", "--x1", "0.3", "--x2", "0.1"],
        ["boundstates", "--ngrid", "0"],
        ["bands", "--v", "1,2,3", "--m", "0"],
        ["bands", "--v", "1,2,3", "--nk", "0"],
        ["sweep", "--nv", "0"],
        ["sweep", "--l", "-2"],
        ["pointlimit", "--g", "0"],
        ["pointlimit", "--converge", "--l0", "0"],
        ["pointlimit", "--converge", "--levels", "0"],
        ["pointlimit", "--n", "-1"],
        ["pointlimit", "--n", "3..1"],
        ["verify", "--cases", "0"],
        ["verify", "--seed", "-1"],
        # non-finite numbers, in every float flag kind
        ["bands", "--v", "1,1,nan"],
        ["bands", "--v", "1,2,3", "--kmax", "inf"],
        ["boundstates", "--v", "0,inf,0"],
        ["boundstates", "--l", "inf"],
        ["boundstates", "--m", "inf"],
        ["boundstates", "--x1=-inf", "--x2", "1"],
        ["boundstates", "--x1", "0", "--x2", "inf"],
        ["flat", "--v11", "nan"],
        ["flat", "--v22", "inf"],
        ["flat", "--v33", "1e400"],
        ["sweep", "--vmin", "nan"],
        ["sweep", "--vmax", "inf"],
        ["sweep", "--alphas", "1,nan,0"],
        ["pointlimit", "--g", "inf"],
        ["pointlimit", "--g", "nan"],
        ["pointlimit", "--converge", "--l0", "inf"],
        # --l and --x1/--x2 both give the width
        ["boundstates", "--v", "1,1,1", "--l", "1", "--x1", "0", "--x2", "2"],
        # --parity picks the P and D levels, and the ladder sets read none
        ["pointlimit", "--set", "P", "--g", "2"],
        ["pointlimit", "--set", "D", "--g", "2", "--converge"],
        ["pointlimit", "--set", "H2", "--family", "l2", "--g", "2", "--n", "0..1", "--parity", "-"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    # a one-line usage error and exit code 1, raised by the parser before any
    # numerics run, not a traceback that exits 1 by accident
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"triband {argv[0]}: error: ")


def test_domain_error_exit_code(capsys):
    # E pinned at the k^2 pole: PoleAtVa surfaces as exit code 2
    code = main(
        ["pointlimit", "--family", "l23", "--set", "H1", "--g", "5", "--n", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pointlimit", "--g", "1e308"],  # divides by zero in pointlimits.chi
        ["boundstates", "--l", "1e300"],  # overflows in model.sc_bounded
        ["sweep", "--vmin", "1e300", "--vmax", "1e300", "--nv", "1"],  # overflows
        ["bands", "--v", "1,2,3", "--kmax", "1e300", "--nk", "3"],  # k^2 = inf
    ],
    ids=["pointlimit", "boundstates", "sweep", "bands"],
)
def test_numerical_trouble_exits_2(argv, tmp_path, capsys):
    # large finite inputs pass the parser; the numbers they lead to do not
    code, _, err = run([*argv, "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("numerical domain error: ")
    assert not (tmp_path / "out.csv.manifest.json").exists()


def test_cli_small_outputs_match_the_benchmark_digests():
    # the four commands of the benchmark's cli_small workload write the bytes
    # that perfbench/refs/cli_small.json pins
    commands = bench_inputs.CLI_COMMANDS
    with open(PERFBENCH / "refs" / "cli_small.json") as fh:
        digests = json.load(fh)["outputs"]
    assert sorted(digests) == sorted(commands)
    for name, argv in commands.items():
        assert pins.digests(argv) == {f: d["sha256"] for f, d in digests[name].items()}, name
