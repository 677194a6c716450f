import json
import warnings
import xml.etree.ElementTree as ET

import pytest

from seedwing import mlp
from seedwing.cli import (_apply_config, build_parser, finite_float, float_list, main,
                          positive_float_list, positive_int)
from seedwing.verifier import LinConstraint, PropertySpec


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, naive_net):
    """Shared artifact directory with a tiny dataset and a trained network."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--out", str(d / "data.csv"),
                 "--norm-out", str(d / "norm.json")]) == 0
    mlp.save(naive_net, d / "net.json")
    return d


class TestSimulate:
    def test_open_loop_outputs(self, tmp_path):
        out = tmp_path / "tr.csv"
        svg = tmp_path / "tr.svg"
        code = main(["simulate", "--mode", "open", "--ex", "0.187",
                     "--t-end", "1.0", "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert out.exists() and svg.exists()
        root = ET.parse(svg).getroot()
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        manifest = json.loads((tmp_path / "tr.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(out) in manifest["outputs"] and str(svg) in manifest["outputs"]

    def test_closed_loop_with_network(self, workdir, tmp_path):
        out = tmp_path / "cl.csv"
        code = main(["simulate", "--mode", "closed", "--net",
                     str(workdir / "net.json"), "--x6-start", "2.0",
                     "--t-end", "1.0", "--out", str(out),
                     "--svg", str(tmp_path / "cl.svg")])
        assert code == 0
        assert out.read_text().startswith("t,x1,x2,x3,x4,x5,x6,e_x")

    def test_config_sets_closed_loop(self, workdir, tmp_path):
        # the mode and the network come from the config only; the trace is
        # the one the same flags give, and a flag still wins over the config
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"simulate": {"mode": "closed",
                                                 "net": str(workdir / "net.json")}}))
        runs = {"config": ["--config", str(conf)],
                "flags": ["--mode", "closed", "--net", str(workdir / "net.json")],
                "open": [],
                "flag-wins": ["--config", str(conf), "--mode", "open"]}
        for name, extra in runs.items():
            assert main(["simulate", "--t-end", "1.0", "--out", str(tmp_path / f"{name}.csv"),
                         "--svg", str(tmp_path / f"{name}.svg")] + extra) == 0
        trace = (tmp_path / "config.csv").read_bytes()
        assert trace == (tmp_path / "flags.csv").read_bytes()
        assert trace != (tmp_path / "open.csv").read_bytes()
        assert (tmp_path / "flag-wins.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()

    def test_warnings_filter_ends_with_the_command(self, tmp_path):
        assert main(["simulate", "--t-end", "1.0", "--out", str(tmp_path / "tr.csv"),
                     "--svg", str(tmp_path / "tr.svg")]) == 0
        with warnings.catch_warnings(record=True) as rec:
            warnings.warn("raised after main returned", UserWarning)
        assert [str(w.message) for w in rec] == ["raised after main returned"]


class TestGenData:
    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--out", str(a), "--norm-out", str(tmp_path / "na.json")]) == 0
        assert main(["gen-data", "--out", str(b), "--norm-out", str(tmp_path / "nb.json")]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "na.json").read_bytes() == (tmp_path / "nb.json").read_bytes()

    def test_norm_json_schema(self, workdir):
        doc = json.loads((workdir / "norm.json").read_text())
        assert set(doc) == {"in_min", "in_max", "out_min", "out_max"}


class TestTrain:
    def test_train_and_embedded_output(self, workdir, tmp_path):
        out = tmp_path / "n.json"
        emb = tmp_path / "emb.json"
        code = main(["train", "--data", str(workdir / "data.csv"),
                     "--out", str(out), "--embedded-out", str(emb),
                     "--epochs", "30"])
        assert code == 0
        net = mlp.load(out)
        assert net.norm is not None
        assert mlp.load(emb).norm is None

    def test_train_adv_smoke(self, workdir, tmp_path):
        out = tmp_path / "adv.json"
        code = main(["train-adv", "--data", str(workdir / "data.csv"),
                     "--out", str(out), "--epochs", "3"])
        assert code == 0
        assert mlp.load(out).meta["kind"] == "adversarial"


class TestVerify:
    def test_verified_exit_zero(self, workdir, tmp_path):
        code = main(["verify", "--net", str(workdir / "net.json"),
                     "--property", "1", "--ystar", "50",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 0

    def test_missing_net_usage_error(self, capsys):
        code = main(["verify", "--property", "1"])
        assert code == 1
        assert "--net" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self):
        assert main(["verify", "--does-not-exist"]) == 1

    def test_falsified_exit_two(self, workdir, tmp_path):
        # constant-1 conclusion f(x) >= 1 is false everywhere in the box
        net = mlp.load(workdir / "net.json")
        spec = PropertySpec(
            "always_large", tuple(zip(net.norm.in_min, net.norm.in_max)), (),
            (LinConstraint((0.0,) * 6, (1.0,), ">=", 1.0),))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        code = main(["verify", "--net", str(workdir / "net.json"),
                     "--spec", str(spec_path), "--out", str(tmp_path / "v.csv")])
        assert code == 2
        rows = (tmp_path / "v.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "falsified"

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"verify": {"ystar": 50.0, "prop": 1}}))
        code = main(["verify", "--net", str(workdir / "net.json"),
                     "--config", str(conf), "--out", str(tmp_path / "v.csv")])
        assert code == 0
        # flags win over the config file
        code2 = main(["verify", "--net", str(workdir / "net.json"),
                      "--config", str(conf), "--property", "1",
                      "--ystar", "50", "--out", str(tmp_path / "v2.csv")])
        assert code2 == 0


class TestCriticalYstar:
    def test_table_csv(self, workdir, tmp_path):
        out = tmp_path / "crit.csv"
        code = main(["critical-ystar", "--net", str(workdir / "net.json"),
                     "--properties", "1,4", "--resolution", "1.0",
                     "--search-max", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "property,critical_ystar,failed,vacuous,timeout_flag"
        assert len(lines) == 3


class TestRobustSweep:
    def test_small_grid(self, workdir, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["robust-sweep", "--net", str(workdir / "net.json"),
                     "--data", str(workdir / "data.csv"),
                     "--eps-list", "1e-5", "--lstar-list", "1e-3,1e-2",
                     "--points", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("epsilon,lstar,rate")
        assert len(lines) == 3


class TestReachCommand:
    def test_reach_unknown_exit_three(self, workdir, tmp_path):
        # the default parameter set cannot be enclosed over the full horizon
        # (README known limitations); branches fail and the verdict is unknown
        out = tmp_path / "reach.csv"
        svg = tmp_path / "reach.svg"
        code = main(["reach", "--net", str(workdir / "net.json"),
                     "--splits", "2", "--out", str(out), "--svg", str(svg)])
        assert code == 3
        assert out.exists()
        root = ET.parse(svg).getroot()
        assert any(e.tag.endswith("polyline") for e in root.iter())

    def test_manifests_differ_only_in_splits(self, workdir, tmp_path):
        outs = []
        for splits in (1, 2):
            out = tmp_path / f"r{splits}.csv"
            main(["reach", "--net", str(workdir / "net.json"),
                  "--splits", str(splits), "--out", str(out),
                  "--svg", str(tmp_path / f"r{splits}.svg")])
            outs.append(json.loads((tmp_path / f"r{splits}.csv.manifest.json").read_text()))
        a, b = outs
        assert a["args"]["splits"] == 1 and b["args"]["splits"] == 2
        skip = {"splits", "out", "svg"}
        a_rest = {k: v for k, v in a["args"].items() if k not in skip}
        b_rest = {k: v for k, v in b["args"].items() if k not in skip}
        assert a_rest == b_rest

    def test_jobs_match_serial_byte_for_byte(self, workdir, tmp_path):
        paths = []
        for jobs in (1, 2):
            out = tmp_path / f"reach-j{jobs}.csv"
            code = main(["reach", "--net", str(workdir / "net.json"), "--splits", "2",
                         "--jobs", str(jobs), "--out", str(out),
                         "--svg", str(tmp_path / f"reach-j{jobs}.svg")])
            assert code == 3
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestJobs:
    def test_sweep_jobs_match_serial(self, workdir, tmp_path):
        rows = []
        for jobs in (1, 2):
            out = tmp_path / f"grid-j{jobs}.csv"
            code = main(["robust-sweep", "--net", str(workdir / "net.json"),
                         "--data", str(workdir / "data.csv"),
                         "--eps-list", "1e-5,1e-3", "--lstar-list", "1e-3,1e-2",
                         "--points", "3", "--jobs", str(jobs), "--out", str(out)])
            assert code == 0
            lines = [line.split(",") for line in out.read_text().splitlines()]
            seconds = lines[0].index("seconds")
            rows.append([line[:seconds] + line[seconds + 1:] for line in lines])
        assert rows[0] == rows[1]
        assert len(rows[0]) == 5

    def test_config_sets_jobs(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"jobs": 2}))
        for command in ("reach", "robust-sweep"):
            args = _apply_config(build_parser().parse_args([command, "--config", str(conf)]))
            assert args.jobs == 2

    @pytest.mark.parametrize("command", ["simulate", "gen-data", "train", "train-adv",
                                         "verify", "critical-ystar"])
    def test_jobs_only_where_read(self, command, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)   # a command that ran would write here
        assert main([command, "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "gen-data", "verify", "critical-ystar",
                                         "robust-sweep", "reach"])
    def test_seed_only_where_read(self, command, capsys, tmp_path, monkeypatch):
        # only train and train-adv draw random numbers
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train", "train-adv", "verify",
                                         "critical-ystar", "robust-sweep", "reach"])
    def test_strict_only_where_read(self, command, capsys, tmp_path, monkeypatch):
        # only simulate checks the angle-of-attack region
        monkeypatch.chdir(tmp_path)
        assert main([command, "--strict"]) == 1
        assert "--strict" in capsys.readouterr().err


# a value each custom-typed setting accepts; other settings take a sample of
# their type or their last choice
_SAMPLES = {"properties": "1,2", "eps_list": "0.1,0.2", "lstar_list": "0.1"}


def _sample(dest, action):
    if dest in _SAMPLES:
        return _SAMPLES[dest]
    if action.choices:
        return str(list(action.choices)[-1])
    return {int: "2", positive_int: "2", finite_float: "0.25"}.get(action.type, "x")


@pytest.mark.parametrize("command", sorted(build_parser().commands))
def test_config_sets_every_flag(command, tmp_path):
    # each setting parses to the same value from a config as from its flag
    parser = build_parser().commands[command]
    for dest, action in parser.options.items():
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv, value = [flag], True
        else:
            value = _sample(dest, action)
            argv = [flag, value]
        conf = tmp_path / f"{dest}.json"
        conf.write_text(json.dumps({command: {dest: value}}))
        from_flag = build_parser().parse_args([command] + argv)
        from_config = _apply_config(build_parser().parse_args([command, "--config", str(conf)]))
        assert getattr(from_config, dest) == getattr(from_flag, dest) is not None, dest


@pytest.mark.parametrize("command, dest, items", [
    ("robust-sweep", "eps_list", [0.01, 0.02]),
    ("robust-sweep", "lstar_list", [0.5, 1, 2.25]),
    ("critical-ystar", "properties", [1, 3]),
])
def test_config_list_sets_list_flag(command, dest, items, tmp_path):
    # a JSON list parses like the flag given its items joined by commas
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({command: {dest: items}}))
    parser = build_parser()
    flag = parser.commands[command].options[dest].option_strings[-1]
    from_flag = parser.parse_args([command, flag, ",".join(map(str, items))])
    from_config = _apply_config(parser.parse_args([command, "--config", str(conf)]))
    assert getattr(from_config, dest) == getattr(from_flag, dest) == tuple(items)


def test_config_list_bad_item_gets_the_flag_type_error(workdir, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text('{"robust-sweep": {"eps_list": [0.01, 0]}}')
    assert main(["robust-sweep", "--net", str(workdir / "net.json"),
                 "--data", str(workdir / "data.csv"), "--config", str(conf)]) == 1
    assert capsys.readouterr().err == \
        f"error: config {conf}: argument --eps-list: values must be > 0, got 0.01,0\n"


def test_reach_divisibility_error_names_the_values(workdir, capsys):
    assert main(["reach", "--net", str(workdir / "net.json"), "--t-end", "0.1"]) == 1
    assert capsys.readouterr().err == \
        "error: t_end 0.1 is not a multiple of dt_control 0.5\n"


# a well-formed spec for a 6-input, 1-output net; the bad-input cases below
# break one part of it
SPEC6 = ('{"name": "p", "input_box": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]], '
         '"premise": [], "conclusion": [{"in": [0, 0, 0, 0, 0, 0], "out": [1], '
         '"rel": "<=", "rhs": 1}]}')


@pytest.mark.parametrize("argv, text", [
    (["verify", "--net", "BAD", "--property", "1"], '{"widths": [6, 1], "layers": []}'),
    (["verify", "--net", "BAD", "--property", "1"], '{"widths": [6, 1], "layers": 5}'),
    (["verify", "--net", "NET", "--config", "BAD"], "{bad"),
    (["verify", "--net", "NET", "--config", "BAD"], "[1]"),
    (["verify", "--net", "NET", "--config", "BAD"], '{"verify": 5}'),
    (["reach", "--net", "NET", "--splits", "0"], ""),
    (["reach", "--net", "NET", "--dt", "0.3"], ""),
    (["reach", "--net", "NET", "--dt", "0"], ""),
    (["reach", "--net", "NET", "--dt", "-0.01", "--t-end", "0.5", "--splits", "1"], ""),
    (["reach", "--net", "NET", "--t-end", "0", "--splits", "1"], ""),
    (["simulate", "--mode", "closed", "--dt", "0.3", "--t-end", "1"], ""),
    (["simulate", "--mode", "closed", "--t-end", "-1"], ""),
    (["simulate", "--t-end", "0"], ""),
    (["simulate", "--dt", "0"], ""),
    (["gen-data", "--record-skip", "-5"], ""),
    (["train", "--data", "DATA", "--lr", "1e30", "--epochs", "3"], ""),
    (["train-adv", "--data", "DATA", "--epochs", "100", "--seed", "2"], ""),
    (["verify", "--net", "NET", "--spec", "BAD"], "{bad"),
    (["verify", "--net", "NET", "--spec", "BAD"], '{"name": "p", "premise": []}'),
    (["verify", "--net", "NET", "--spec", "BAD"], "[1]"),
    (["verify", "--net", "NET", "--spec", "BAD"],
     '{"name": "p", "input_box": [[0, 1]], "premise": [], "conclusion": '
     '[{"in": [0], "out": [1], "rel": "<=", "rhs": 1}]}'),
    (["critical-ystar", "--net", "NET", "--properties", "5"], ""),
    (["critical-ystar", "--net", "NET", "--resolution", "0"], ""),
    (["critical-ystar", "--net", "NET", "--resolution", "0.25", "--search-max", "0.1",
      "--properties", "1,3"], ""),
    (["train", "--data", "BAD", "--epochs", "3"], "a,b\n1,2\n"),
    (["robust-sweep", "--net", "NET", "--data", "DATA", "--eps-list", "abc"], ""),
    (["robust-sweep", "--net", "NET", "--data", "DATA", "--points", "0"], ""),
    (["robust-sweep", "--net", "NET", "--data", "DATA", "--eps-list", "0"], ""),
    (["simulate", "--strict", "--t-end", "1"], ""),
    (["simulate", "--mode", "closed", "--strict", "--t-end", "1"], ""),
    (["verify", "--net", "NET", "--config", "BAD"], '{"verify": {"prop": 7}}'),
    (["train", "--data", "DATA", "--config", "BAD"], '{"train": {"epochs": "abc"}}'),
    (["simulate", "--t-end", "1", "--config", "BAD"],
     '{"simulate": {"mode": "closed", "strict": true}}'),
    (["simulate", "--t-end", "1", "--config", "BAD"], '{"simulate": {"mode": "sideways"}}'),
    (["verify", "--net", "NET", "--spec", "BAD"], SPEC6.replace("[0, 1]]", "[1, 0]]")),
    (["verify", "--net", "NET", "--spec", "BAD"], SPEC6.replace('"rhs": 1', '"rhs": NaN')),
    (["verify", "--net", "NET", "--spec", "BAD"], SPEC6.replace("[0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0]")),
    (["verify", "--net", "NET", "--spec", "BAD"], SPEC6.replace('"out": [1]', '"out": [1, 0]')),
    (["reach", "--net", "NET", "--x6-lo", "3", "--x6-hi", "2"], ""),
    (["train", "--data", "DATA", "--lr", "1e300", "--epochs", "3"], ""),
    (["train", "--data", "DATA", "--batch-size", "0"], ""),
    (["train-adv", "--data", "DATA", "--batch-size", "0"], ""),
    (["train", "--data", "DATA", "--batch-size", "-4"], ""),
    (["train", "--data", "DATA", "--epochs", "0"], ""),
    (["train", "--data", "DATA", "--epochs", "-3"], ""),
    (["train", "--data", "DATA", "--lr", "-0.5", "--epochs", "3"], ""),
    (["train-adv", "--data", "DATA", "--pgd-steps", "0", "--epochs", "3"], ""),
    (["train-adv", "--data", "DATA", "--epsilon", "0", "--epochs", "3"], ""),
    (["train-adv", "--data", "DATA", "--restarts", "0", "--epochs", "3"], ""),
    (["train-adv", "--data", "DATA", "--restarts", "-2", "--epochs", "3"], ""),
    (["robust-sweep", "--net", "NET", "--data", "DATA", "--points", "2", "--jobs", "0"], ""),
    (["reach", "--net", "NET", "--jobs", "-3"], ""),
], ids=["empty-layers", "layers-not-list", "config-not-json", "config-not-object",
        "config-section-not-object", "zero-splits", "dt-not-dividing", "reach-zero-dt",
        "reach-negative-dt", "reach-zero-t-end", "sim-dt-not-dividing",
        "sim-negative-t-end", "sim-zero-t-end", "sim-zero-dt", "negative-record-skip",
        "train-diverged", "train-adv-constant", "spec-not-json", "spec-missing-field",
        "spec-not-object", "spec-arity-mismatch", "critical-bad-kind",
        "critical-zero-resolution", "critical-search-max-below-resolution",
        "data-bad-header", "eps-list-not-float",
        "sweep-zero-points", "sweep-zero-eps", "sim-strict-alpha-open",
        "sim-strict-alpha-closed", "config-bad-choice", "config-bad-int",
        "config-strict-alpha-closed", "config-bad-mode", "spec-reversed-box",
        "spec-nan-rhs", "spec-short-in", "spec-long-out", "reach-reversed-x6",
        "train-lr-overflow", "train-zero-batch", "train-adv-zero-batch",
        "train-negative-batch", "train-zero-epochs", "train-negative-epochs",
        "train-negative-lr", "train-adv-zero-steps", "train-adv-zero-epsilon",
        "train-adv-zero-restarts", "train-adv-negative-restarts", "sweep-zero-jobs",
        "reach-negative-jobs"])
def test_bad_input_one_line_error(argv, text, workdir, tmp_path, capsys, request):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"BAD": str(bad), "NET": str(workdir / "net.json"),
             "DATA": str(workdir / "data.csv")}
    code = main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert BAD_INPUT_NAMES.get(request.node.callspec.id, "") in err


# what the one line of some bad-input cases must say: the value at fault,
# or the epoch a run diverged in
BAD_INPUT_NAMES = {
    "critical-search-max-below-resolution": "search_max=0.1 and resolution=0.25",
    "train-lr-overflow": "diverged at epoch 0",
    "train-zero-batch": "--batch-size: must be >= 1, got 0",
    "train-adv-zero-batch": "--batch-size: must be >= 1, got 0",
    "train-negative-batch": "--batch-size: must be >= 1, got -4",
    "train-zero-epochs": "--epochs: must be >= 1, got 0",
    "train-negative-epochs": "--epochs: must be >= 1, got -3",
    "train-negative-lr": "lr must be finite and > 0, got -0.5",
    "train-adv-zero-restarts": "--restarts: must be >= 1, got 0",
    "train-adv-negative-restarts": "--restarts: must be >= 1, got -2",
    "sweep-zero-jobs": "--jobs: must be >= 1, got 0",
    "reach-negative-jobs": "--jobs: must be >= 1, got -3",
}


# every number flag of every command, each given a non-finite value; the
# first four once ended in a traceback past the parser
NUMBER_FLAGS = [(name, action.option_strings[-1])
                for name, sp in build_parser().commands.items()
                for action in sp.options.values()
                if action.type in (finite_float, float_list, positive_float_list)]
NON_FINITE = [
    (["simulate", "--x6-start", "nan"], ""),
    (["verify", "--net", "NET", "--property", "1", "--ystar", "nan"], ""),
    (["reach", "--net", "NET", "--x6-lo", "nan"], ""),
    (["reach", "--net", "NET", "--max-order", "nan"], ""),
    (["reach", "--net", "NET", "--x6-hi", "inf"], ""),
    (["robust-sweep", "--net", "NET", "--data", "DATA", "--eps-list", "0.1,nan"], ""),
    (["simulate", "--config", "BAD"], '{"simulate": {"x6_start": NaN}}'),
    (["reach", "--net", "NET", "--config", "BAD"], '{"reach": {"max_order": Infinity}}'),
] + [([name, f"{flag}={value}"], "") for name, flag in NUMBER_FLAGS
     for value in ("nan", "-inf")]


@pytest.mark.parametrize("argv, text", NON_FINITE,
                         ids=[" ".join(a) for a, _ in NON_FINITE])
def test_non_finite_number_one_line_error(argv, text, workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"BAD": str(bad), "NET": str(workdir / "net.json"),
             "DATA": str(workdir / "data.csv")}
    code = main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "finite number" in err
