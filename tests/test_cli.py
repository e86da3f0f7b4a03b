import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from vepm.cli import main
from vepm.diffmath import load_arrays
from vepm.graphs import load_graph_dataset, load_node_dataset
from vepm.runconfig import load_run_config


@pytest.fixture()
def synth_run(tmp_path):
    """A small synthetic dataset plus a fast run config."""
    data = str(tmp_path / "data")
    out = str(tmp_path / "out")
    rc = main(["synth", "--n", "60", "--c", "4", "--gamma", "0.0008,0.0008,0.0008,0.0008",
               "--boost", "30", "--seed", "5", "--out", data])
    assert rc == 0
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(f"""
dataset = {data}
task = node
out = {out}
seed = 3
model.n_metacommunities = 4
model.communities_per_block = 1
model.hidden_dim = 16
model.encoder_layers = 1
model.dropout = 0.0
model.mc_samples = 2
train.pretrain_epochs = 6
train.finetune_epochs = 6
train.patience = 100
""")
    return tmp_path, data, out, cfg_path


@pytest.fixture()
def graph_run(tmp_path):
    """A 9-graph synthetic collection plus a fast 3-fold run config."""
    from conftest import synthetic_collection
    from vepm.graphs import save_graph_dataset

    data = str(tmp_path / "gdata")
    save_graph_dataset(data, synthetic_collection(n_graphs=9, seed=2))
    out = str(tmp_path / "gout")
    cfg = str(tmp_path / "g.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"""
dataset = {data}
task = graph
out = {out}
seed = 1
folds = 3
model.n_metacommunities = 2
model.communities_per_block = 2
model.hidden_dim = 16
model.dropout = 0.0
model.mc_samples = 2
train.pretrain_epochs = 3
train.finetune_epochs = 4
train.patience = 100
""")
    return out, cfg


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSynth:
    def test_round_trip_loadable(self, synth_run):
        _tmp, data, _out, _cfg = synth_run
        graph = load_node_dataset(data)
        assert graph.n_nodes == 60
        assert graph.train_mask.sum() > 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["synth", "--n", "30", "--c", "2", "--gamma", "0.01,0.01",
                "--seed", "9"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in os.listdir(a):
            assert read(os.path.join(a, name)) == read(os.path.join(b, name)), name

    def test_gamma_length_mismatch_exit_2(self, tmp_path, capsys):
        rc = main(["synth", "--n", "10", "--c", "3", "--gamma", "1,1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "VEPM-ERROR kind=config" in capsys.readouterr().err

    def test_non_finite_gamma_exit_2_writes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        rc = main(["synth", "--n", "50", "--c", "2", "--gamma", "nan,0.1", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "gamma entries" in err
        assert not os.path.exists(out)


class TestPipelineCommands:
    def test_non_numeric_feature_exit_2(self, synth_run, capsys):
        _tmp, data, _out, cfg = synth_run
        features = os.path.join(data, "features.csv")
        with open(features, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[3] = "#" + lines[3]
        with open(features, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        assert main(["pretrain", "--config", cfg]) == 2
        assert "VEPM-ERROR kind=config" in capsys.readouterr().err

    @pytest.mark.parametrize("name,cell,message", [
        ("features.csv", "nan", "non-finite feature value"),
        ("masks.csv", "2", "mask values must be 0 or 1")])
    def test_malformed_value_exit_2_names_file_and_line(self, synth_run, capsys,
                                                        name, cell, message):
        _tmp, data, _out, cfg = synth_run
        path = os.path.join(data, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        # one field of line 4: a feature entry's value, a mask's train flag
        fields = lines[3].split(",")
        fields[2 if name == "features.csv" else 0] = cell
        lines[3] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        assert main(["pretrain", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"{name}:4: {message}" in err

    def test_pretrain_train_eval_artifacts(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        assert main(["eval", "--config", cfg]) == 0
        for name in ("pretrain.ckpt", "model.ckpt", "pretrain_metrics.csv",
                     "train_metrics.csv", "eval_report.json"):
            assert os.path.isfile(os.path.join(out, name)), name
        report = json.loads(read(os.path.join(out, "eval_report.json")))
        assert 0.0 <= report["accuracy_mean"] <= 1.0
        assert report["nmi_pretrain"] is not None

    def test_missing_dataset_exit_2_names_path(self, synth_run, capsys):
        tmp, _data, _out, _cfg = synth_run
        cfg2 = str(tmp / "bad.cfg")
        with open(cfg2, "w") as fh:
            fh.write("dataset = /nonexistent/ds\ntask = node\n")
        rc = main(["pretrain", "--config", cfg2])
        assert rc == 2
        assert "/nonexistent/ds" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, synth_run, capsys):
        tmp, data, _out, _cfg = synth_run
        cfg2 = str(tmp / "bad2.cfg")
        with open(cfg2, "w") as fh:
            fh.write(f"dataset = {data}\nmodel.banana = 3\n")
        assert main(["pretrain", "--config", cfg2]) == 2

    def test_train_seed_is_the_run_seed(self, synth_run):
        _tmp, _data, _out, cfg = synth_run
        assert load_run_config(cfg).train.seed == 3
        assert load_run_config(cfg, {"seed": 8}).train.seed == 8

    def test_config_values_parse_to_their_field_types(self):
        from vepm.runconfig import ConfigError, build_run_config

        cfg = build_run_config({"seed": "4", "keep_rate": "0.5", "model.tau": "2",
                                "model.mc_samples": "3", "model.layer_kind": "gin",
                                "sampler.enabled": "yes",
                                "train.elbo_weights": "1, 0.5, 0"})
        assert (cfg.seed, cfg.keep_rate, cfg.model.tau) == (4, 0.5, 2.0)
        assert type(cfg.model.tau) is float and type(cfg.model.mc_samples) is int
        assert cfg.model.layer_kind == "gin" and cfg.sampler.enabled is True
        assert cfg.train.elbo_weights == (1.0, 0.5, 0.0)
        for key, value in (("model.tau", "hot"), ("seed", "1.5"),
                           ("sampler.enabled", "maybe"), ("train.elbo_weights", "1,x,0")):
            with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
                build_run_config({key: value})

    def test_metrics_byte_identical_on_rerun(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        first = {n: read(os.path.join(out, n))
                 for n in ("pretrain_metrics.csv", "train_metrics.csv")}
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        for name, blob in first.items():
            assert read(os.path.join(out, name)) == blob, name

    def test_resume_restores_step_counter(self, synth_run):
        tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        ckpt = os.path.join(out, "pretrain.ckpt")
        _entries, meta = load_arrays(ckpt)
        assert meta["epoch"] == "6"
        t_before = int(meta["adam_t"])
        assert t_before == 6

        # continuing from the checkpoint picks the counter back up
        cfg2 = str(tmp / "longer.cfg")
        with open(cfg2, "w") as fh:
            fh.write(read(os.path.join(str(tmp), "run.cfg")).decode()
                     .replace("train.pretrain_epochs = 6",
                              "train.pretrain_epochs = 9"))
        assert main(["pretrain", "--config", cfg2, "--resume", ckpt]) == 0
        _entries, meta2 = load_arrays(ckpt)
        assert meta2["epoch"] == "9"
        assert int(meta2["adam_t"]) == 9

    @staticmethod
    def _with_epochs(tmp, key, epochs):
        """A copy of the run config with `key` set to `epochs`."""
        path = str(tmp / f"{key}_{epochs}.cfg")
        with open(path, "w") as fh:
            fh.write(read(os.path.join(str(tmp), "run.cfg")).decode()
                     + f"train.{key} = {epochs}\n")
        return path

    def test_pretrain_resume_keeps_earlier_metric_rows(self, synth_run):
        tmp, _data, out, _cfg = synth_run
        two, four = (self._with_epochs(tmp, "pretrain_epochs", e) for e in (2, 4))
        straight = str(tmp / "straight")
        assert main(["pretrain", "--config", four, "--out", straight]) == 0
        assert main(["pretrain", "--config", two]) == 0
        timings = read(os.path.join(out, "pretrain_timings.csv"))
        ckpt = os.path.join(out, "pretrain.ckpt")
        assert main(["pretrain", "--config", four, "--resume", ckpt]) == 0
        for name in ("pretrain_metrics.csv", "pretrain.ckpt"):
            assert read(os.path.join(out, name)) == read(os.path.join(straight, name))
        resumed = read(os.path.join(out, "pretrain_timings.csv"))
        assert resumed.startswith(timings)
        assert [ln.split(b",")[0] for ln in resumed.splitlines()] == [
            b"epoch", b"0", b"1", b"2", b"3"]

    @pytest.mark.parametrize("patience,epochs", [(1, 4), (2, 5), (3, 6)])
    def test_pretrain_resume_keeps_the_early_stopping_state(self, synth_run, patience,
                                                            epochs):
        # lr_unsup = 0.3 peaks the objective at epoch 2, so a resume from
        # epoch 3 starts with a stall that a fresh count would forget
        tmp, _data, out, _cfg = synth_run
        base = read(os.path.join(str(tmp), "run.cfg")).decode() + (
            f"train.lr_unsup = 0.3\ntrain.patience = {patience}\n")
        configs = {}
        for n in (3, 20):
            configs[n] = str(tmp / f"stop_{n}.cfg")
            with open(configs[n], "w") as fh:
                fh.write(base + f"train.pretrain_epochs = {n}\n")
        straight = str(tmp / "straight")
        assert main(["pretrain", "--config", configs[20], "--out", straight]) == 0
        assert main(["pretrain", "--config", configs[3]]) == 0
        ckpt = os.path.join(out, "pretrain.ckpt")
        assert main(["pretrain", "--config", configs[20], "--resume", ckpt]) == 0
        for name in ("pretrain_metrics.csv", "pretrain.ckpt"):
            assert read(os.path.join(out, name)) == read(os.path.join(straight, name)), name
        _entries, meta = load_arrays(ckpt)
        assert (meta["epoch"], meta["stall"]) == (str(epochs), str(patience))
        # a resume of a run that has stopped trains no further
        assert main(["pretrain", "--config", configs[20], "--resume", ckpt]) == 0
        assert read(ckpt) == read(os.path.join(straight, "pretrain.ckpt"))

    def test_train_resume_keeps_earlier_metric_rows(self, synth_run):
        tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", self._with_epochs(tmp, "finetune_epochs", 3)]) == 0
        earlier = {n: read(os.path.join(out, n))
                   for n in ("train_metrics.csv", "train_timings.csv")}
        assert main(["train", "--config", self._with_epochs(tmp, "finetune_epochs", 5),
                     "--resume", os.path.join(out, "model.ckpt")]) == 0
        for name, blob in earlier.items():
            text = read(os.path.join(out, name))
            assert text.startswith(blob), name
            assert [ln.split(b",")[0] for ln in text.splitlines()[1:]] == [
                b"0", b"1", b"2", b"3", b"4"], name

    @pytest.mark.parametrize("lines,message", [
        (["train.pretrain_epochs = -3"], "epoch counts must be >= 0"),
        (["train.lr_unsup = nan"], "learning rates must be finite and nonnegative"),
        (["model.tau = inf"], "tau must be finite and positive"),
        (["sampler.enabled = true", "sampler.n_sub = 0"], "n_sub must be >= 2, got 0"),
        (["train.elbo_weights = 1,2"], "elbo_weights must be 3 finite numbers"),
        (["train.patience = 0"], "patience must be >= 1, got 0"),
        (["train.seed = 5"], "train.seed is not read"),
    ])
    def test_invalid_training_setting_exit_2(self, synth_run, capsys, lines, message):
        _tmp, _data, out, cfg = synth_run
        with open(cfg, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["pretrain", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and message in err
        assert not os.path.exists(os.path.join(out, "pretrain.ckpt"))

    def test_zero_pretrain_epochs_runs(self, synth_run, capsys):
        _tmp, _data, out, cfg = synth_run
        with open(cfg, "a") as fh:
            fh.write("train.pretrain_epochs = 0\n")
        assert main(["pretrain", "--config", cfg]) == 0
        assert "epochs=0" in capsys.readouterr().out

    def test_eval_probes_write_confusions(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        assert main(["eval", "--config", cfg, "--probes"]) == 0
        report = json.loads(read(os.path.join(out, "eval_report.json")))
        mats = report["details"]["community_confusions"]
        assert len(mats) == 4
        for mat in mats:
            np.testing.assert_allclose(np.sum(mat, axis=1), 1.0, atol=1e-9)
        assert os.path.isfile(os.path.join(out, "probes", "confusion_0.csv"))

    def test_eval_scores_random_inputs_drawn_from_the_run_seed(self, synth_run):
        """With random input features, the posterior predictive and `eval`
        draw those features from the run's seed (3), as training does."""
        from vepm import diffmath as dm
        from vepm.distributions import weibull_rsample
        from vepm.model import (encode_communities, encoder_uniforms, forward_logits,
                                gamma_node, init_params, partition_edges,
                                posterior_predictive, prepare_node_graph)
        from vepm.training import accuracy

        _tmp, data, out, cfg_path = synth_run
        with open(cfg_path, "a") as fh:
            fh.write("model.input_mode = random\n")
        assert main(["train", "--config", cfg_path]) == 0
        assert main(["eval", "--config", cfg_path]) == 0
        run = load_run_config(cfg_path)
        cfg, seed = run.model, run.seed
        graph = load_node_dataset(data)
        prep = prepare_node_graph(graph)
        store = init_params(cfg, graph.n_features, graph.n_classes(), seed, "node")
        store.load(os.path.join(out, "model.ckpt"))

        frozen = store.detached()
        gamma = gamma_node(frozen)
        ref = 0.0
        for i in range(cfg.mc_samples):
            u = encoder_uniforms(graph.n_nodes, cfg.total_communities, seed, "predict", i)
            if i == 0:
                post = encode_communities(prep, frozen, cfg, u, seed)
                z = post.z
            else:
                z = weibull_rsample(post.weibull_shape, post.weibull_scale, u)
            part = partition_edges(graph.adjacency, z, gamma, cfg, seed)
            logits = forward_logits(prep, z, part, frozen, cfg, seed)
            ref = ref + dm.row_softmax_with_temperature(logits, 1.0).value
        ref = ref / cfg.mc_samples

        got = posterior_predictive(prep, store, cfg, cfg.mc_samples, seed,
                                   partition_seed=seed)
        np.testing.assert_array_equal(got, ref)
        report = json.loads(read(os.path.join(out, "eval_report.json")))
        assert report["accuracy_mean"] == accuracy(ref, graph.labels, graph.test_mask)

    def test_train_resume_continues_epochs(self, synth_run):
        tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        ckpt = os.path.join(out, "model.ckpt")
        _e, meta = load_arrays(ckpt)
        assert meta["epoch"] == "6"
        cfg2 = str(tmp / "longer_train.cfg")
        with open(cfg2, "w") as fh:
            fh.write(read(os.path.join(str(tmp), "run.cfg")).decode()
                     .replace("train.finetune_epochs = 6",
                              "train.finetune_epochs = 8"))
        assert main(["train", "--config", cfg2, "--resume", ckpt]) == 0
        _e, meta2 = load_arrays(ckpt)
        assert meta2["epoch"] == "8"
        # theta optimizer took inner_steps updates per additional epoch
        assert int(meta2["adam_theta_t"]) == int(meta["adam_theta_t"]) + 10

    @pytest.mark.parametrize("command,other", [("train", "pretrain.ckpt"),
                                               ("pretrain", "model.ckpt")])
    def test_resume_refuses_the_other_phase_checkpoint(self, synth_run, capsys,
                                                      command, other):
        """Resuming from the other phase's checkpoint would start at that
        phase's epoch count with its parameters; it is refused, and no file
        of the run changes."""
        _tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        written = {n: read(os.path.join(out, n)) for n in sorted(os.listdir(out))}
        capsys.readouterr()
        assert main([command, "--config", cfg, "--resume", os.path.join(out, other)]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert "'pretrain'" in err and "'finetune'" in err
        assert {n: read(os.path.join(out, n)) for n in sorted(os.listdir(out))} == written

    def test_per_community_checkpoint_refused(self, synth_run, capsys):
        """A checkpoint that names the bank per community (the layout before
        the bank was stacked) is refused, not loaded with a random bank."""
        from vepm.diffmath import save_arrays

        tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        entries, meta = load_arrays(os.path.join(out, "pretrain.ckpt"))
        old = []
        for name, group, arr in entries:
            if name.startswith("bank."):
                _bank, li, p = name.split(".")
                blocks = np.hsplit(arr, 4) if name == "bank.0.W" else np.split(arr, 4)
                old += [(f"bank.{k}.{li}.{p}", group, b.reshape(-1, b.shape[-1])
                         if p == "W" else b.reshape(-1)) for k, b in enumerate(blocks)]
            else:
                old.append((name, group, arr))
        old_ckpt = str(tmp / "per_community.ckpt")
        save_arrays(old_ckpt, old, meta)
        capsys.readouterr()
        for argv in (["eval", "--config", cfg, "--checkpoint", old_ckpt],
                     ["pretrain", "--config", cfg, "--resume", old_ckpt]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "VEPM-ERROR kind=config" in err
            assert "unknown bank.0.0.W" in err and "missing bank.0.W" in err

    @pytest.mark.parametrize("fault", ["no_data_line", "truncated", "trailing_bytes",
                                       "bad_dims", "binary_header"])
    def test_malformed_checkpoint_names_its_file(self, synth_run, capsys, fault):
        tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        raw = read(os.path.join(out, "pretrain.ckpt"))
        raw = {"no_data_line": raw[:raw.index(b"\ndata\n") + 1],
               "truncated": raw[:-8],
               "trailing_bytes": raw + bytes(8),
               "bad_dims": raw.replace(b" 16,16\n", b" 16,x\n", 1),
               "binary_header": raw.replace(b"meta phase", b"meta \xffphase")}[fault]
        assert raw != read(os.path.join(out, "pretrain.ckpt"))
        path = str(tmp / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(raw)
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", path]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"msg={path}: " in err

    def test_eval_keep_rate_runs_reduced(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["eval", "--config", cfg, "--keep-rate", "0.5"]) == 0
        report = json.loads(read(os.path.join(out, "eval_report.json")))
        assert report["protocol"] == "reduced-label"
        assert report["details"]["keep_rate"] == 0.5

    @pytest.mark.parametrize("flag", [["--checkpoint", "model.ckpt"],
                                      ["--mc-samples", "3"], ["--probes"]])
    def test_reduced_label_eval_refuses_flags_it_does_not_read(self, synth_run, capsys,
                                                             flag):
        _tmp, _data, out, cfg = synth_run
        assert main(["eval", "--config", cfg, "--keep-rate", "0.5"] + flag) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"{flag[0]} not read by the reduced-label run" in err
        assert not os.path.exists(os.path.join(out, "eval_report.json"))

    @pytest.mark.parametrize("keep_rate", ["0", "1.5", "nan"])
    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_keep_rate_outside_unit_interval_exit_2(self, synth_run, capsys,
                                                   keep_rate, source):
        _tmp, _data, _out, cfg = synth_run
        argv = ["eval", "--config", cfg]
        if source == "file":
            with open(cfg, "a") as fh:
                fh.write(f"keep_rate = {keep_rate}\n")
        else:
            argv += ["--keep-rate", keep_rate]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "keep_rate must lie in (0, 1]" in err


def ring_run(tmp_path, scale):
    """A 40-node ring with 5 standard-normal features times `scale`, and a
    run config that sets nothing but the dataset, task, output and seed."""
    from vepm.graphs import Graph, save_node_dataset
    from vepm.rng import substream
    from vepm.sparse import adjacency_from_edges

    n = 40
    adj = adjacency_from_edges(n, np.array([[i, (i + 1) % n] for i in range(n)]))
    split = np.arange(n) % 5
    graph = Graph(adjacency=adj,
                  features=scale * substream(0, "features").standard_normal((n, 5)),
                  labels=(np.arange(n) // 10) % 2, train_mask=split < 2,
                  val_mask=split == 2, test_mask=split > 2)
    save_node_dataset(str(tmp_path / "ring"), graph)
    out, cfg = str(tmp_path / "out"), str(tmp_path / "ring.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"dataset = {tmp_path / 'ring'}\ntask = node\nout = {out}\nseed = 0\n")
    return out, cfg


class TestImpossibleBound:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_impossible_edge_term_exits_3_and_names_it(self, tmp_path, capsys):
        """At features times 10 the closed-form edge term of epoch 0 reads far
        above log p(A | Z)'s bound E log(1 + EDGE_EPS); the run stops there."""
        out, cfg = ring_run(tmp_path, 10.0)
        assert main(["pretrain", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=divergence" in err
        assert "epoch 0: l_egen = " in err and "exceeds its bound" in err
        assert "of Weibull shapes at SHAPE_MIN" in err
        assert not os.path.exists(os.path.join(out, "pretrain.ckpt"))

    def test_unit_scale_features_pretrain_within_the_bound(self, tmp_path):
        from vepm.distributions import EDGE_EPS

        out, cfg = ring_run(tmp_path, 1.0)
        assert main(["pretrain", "--config", cfg]) == 0
        with open(os.path.join(out, "pretrain_metrics.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) > 1
        assert all(float(r[2]) <= 40 * np.log1p(EDGE_EPS) and float(r[3]) <= 0 for r in rows)


class TestGraphTaskCommands:
    def test_graph_eval_keep_rate_exit_2(self, tmp_path, capsys):
        cfg = str(tmp_path / "g.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"dataset = {tmp_path}\ntask = graph\nout = {tmp_path / 'out'}\n")
        assert main(["eval", "--config", cfg, "--keep-rate", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "keep_rate below 1 needs task = node" in err
        with open(cfg, "a") as fh:
            fh.write("keep_rate = 0.5\n")
        assert main(["eval", "--config", cfg]) == 2
        assert "keep_rate below 1 needs task = node" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", [["--checkpoint", "model.ckpt"],
                                      ["--mc-samples", "3"], ["--probes"]])
    def test_graph_eval_refuses_flags_it_does_not_read(self, tmp_path, capsys, flag):
        cfg = str(tmp_path / "g.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"dataset = {tmp_path}\ntask = graph\nout = {tmp_path / 'out'}\n")
        assert main(["eval", "--config", cfg] + flag) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"{flag[0]} not read by the graph cross-validation" in err

    def test_graph_task_refuses_the_sampler(self, graph_run, capsys):
        from vepm.runconfig import ConfigError, RunConfig
        from vepm.training import SamplerConfig

        with pytest.raises(ConfigError, match="sampler.enabled = true needs task = node"):
            RunConfig(task="graph", sampler=SamplerConfig(enabled=True))
        _out, cfg = graph_run
        with open(cfg, "a") as fh:
            fh.write("sampler.enabled = true\n")
        for command in ("pretrain", "eval"):
            assert main([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "VEPM-ERROR kind=config" in err
            assert "sampler.enabled = true needs task = node" in err

    @pytest.mark.parametrize("protocol", ["xu", "zhang"])
    def test_graph_eval_refuses_zero_finetune_epochs(self, graph_run, capsys,
                                                     protocol):
        _out, cfg = graph_run
        with open(cfg, "a") as fh:
            fh.write("train.finetune_epochs = 0\n")
        assert main(["eval", "--config", cfg, "--protocol", protocol]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "train.finetune_epochs" in err

    def test_negative_graph_label_exit_2(self, graph_run, capsys):
        _out, cfg = graph_run
        labels = os.path.join(load_run_config(cfg).dataset, "labels.csv")
        with open(labels, "w", encoding="utf-8") as fh:
            fh.write("-1\n" + "1\n" * 8)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "graph labels must be nonnegative" in err

    def test_graph_pipeline_and_protocols(self, graph_run):
        out, cfg = graph_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        for protocol in ("xu", "zhang"):
            assert main(["eval", "--config", cfg, "--protocol", protocol]) == 0
            report = json.loads(read(os.path.join(out, "eval_report.json")))
            assert report["protocol"] == protocol
            assert len(report["per_fold"]) == 3
        # too few folds for the stricter protocol is a config error
        assert main(["eval", "--config", cfg, "--protocol", "zhang",
                     "--seed", "1"]) == 0
        with open(cfg, "a") as fh:
            fh.write("folds = 2\n")
        assert main(["eval", "--config", cfg, "--protocol", "zhang"]) == 2

    def test_ablate_row_is_the_cross_validation(self, graph_run):
        from vepm.evaluation import cross_validate_graphs

        out, cfg = graph_run
        assert main(["ablate", "--config", cfg, "--axis", "partition_mode",
                     "--values", "even"]) == 0
        rows = json.loads(read(os.path.join(out, "ablation_partition_mode.json")))["rows"]
        run = load_run_config(cfg)
        report = cross_validate_graphs(
            load_graph_dataset(run.dataset), replace(run.model, partition_mode="even"),
            run.train, folds=run.folds, seed=run.seed, protocol=run.protocol)
        assert rows[0]["per_fold"] == report.per_fold


class TestVerifyCommand:
    def test_sampler_suite_passes(self, capsys):
        assert main(["verify", "--suite", "sampler"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_kl_suite_passes(self):
        assert main(["verify", "--suite", "kl"]) == 0

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("suite", ["kl", "sampler", "partition"])
    def test_oracle_suite_passes_at_every_seed(self, suite, seed):
        from vepm.verify import run_suite

        results = run_suite(suite, seed)
        assert results
        assert [r.line() for r in results if not r.passed] == []

    def test_all_suites_pass_within_budget(self, capsys):
        import time

        t0 = time.time()
        assert main(["verify", "--suite", "all"]) == 0
        assert time.time() - t0 < 600
        assert "FAIL" not in capsys.readouterr().out


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["pretrain", "--jobs", "2"],
        ["train", "--mc-samples", "3"],
        ["eval", "--resume", "model.ckpt"],
        ["partition-export", "--checkpoint", "model.ckpt", "--jobs", "2"],
        ["ablate", "--axis", "tau", "--values", "1", "--resume", "model.ckpt"],
        ["pretrain", "--keep-rate", "0.5"],
        ["train", "--protocol", "xu"],
        ["eval", "--jobs", "2"],
        ["partition-export", "--checkpoint", "model.ckpt", "--keep-rate", "0.5"],
        ["ablate", "--axis", "tau", "--values", "1", "--keep-rate", "0.5"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", "run.cfg"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["eval", "--mc-samples", "0"],
        ["eval", "--mc-samples", "-2"],
        ["ablate", "--axis", "tau", "--values", "1", "--jobs", "0"],
        ["ablate", "--axis", "tau", "--values", "1", "--jobs", "-1"],
    ])
    def test_count_below_one_is_rejected_while_parsing(self, argv, capsys, monkeypatch):
        import vepm.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "run_eval", unreachable)
        monkeypatch.setattr(cli, "run_ablate", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", "run.cfg"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err


def _readme_flag_table() -> dict:
    """README's `| command | flags |` table: command -> set of flags."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    start = lines.index("| command | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        commands, flags = [cell.strip() for cell in line.strip("|").split("|")]
        for command in commands.split(","):
            assert command.strip().strip("`") not in table, command
            table[command.strip().strip("`")] = set(flags.strip("`").split())
    return table


def test_readme_flag_table_matches_the_parser():
    import argparse

    from vepm.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {opt for action in p._actions for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"}
              for name, p in sub.choices.items()}
    assert _readme_flag_table() == parsed


class TestPartitionExport:
    def test_export_files_and_weight_sums(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["pretrain", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        part_dir = os.path.join(out, "partition")
        assert main(["partition-export", "--config", cfg, "--checkpoint",
                     os.path.join(out, "model.ckpt"), "--out", part_dir]) == 0
        sums = None
        for k in range(4):
            path = os.path.join(part_dir, f"part_{k}.csv")
            assert os.path.isfile(path)
            rows = [line.split(",") for line in open(path).read().splitlines()]
            w = np.array([float(r[2]) for r in rows])
            sums = w if sums is None else sums + w
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        order_rows = open(os.path.join(part_dir, "node_order.csv")).read().splitlines()
        assert len(order_rows) == 60
        assert os.path.isfile(os.path.join(part_dir, "affiliations.csv"))

    def test_missing_checkpoint_exit_2(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["partition-export", "--config", cfg, "--checkpoint",
                     os.path.join(out, "nope.ckpt")]) == 2


class TestAblate:
    def test_tau_axis_rows(self, synth_run):
        tmp, _data, out, cfg = synth_run
        rc = main(["ablate", "--config", cfg, "--axis", "tau",
                   "--values", "0.1,1,10"])
        assert rc == 0
        csv_path = os.path.join(out, "ablation_tau.csv")
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "axis,value,accuracy_mean,accuracy_stderr"
        assert len(lines) == 4
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0.1", "1", "10"]

    def test_training_scheme_axis(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        rc = main(["ablate", "--config", cfg, "--axis", "training_scheme",
                   "--values", "scratch,pretrain_finetune"])
        assert rc == 0
        assert os.path.isfile(os.path.join(out, "ablation_training_scheme.csv"))

    def test_jobs_flag_deterministic(self, synth_run):
        _tmp, _data, out, cfg = synth_run
        assert main(["ablate", "--config", cfg, "--axis", "partition_mode",
                     "--values", "even,random", "--jobs", "2"]) == 0
        first = read(os.path.join(out, "ablation_partition_mode.csv"))
        assert main(["ablate", "--config", cfg, "--axis", "partition_mode",
                     "--values", "even,random", "--jobs", "1"]) == 0
        assert read(os.path.join(out, "ablation_partition_mode.csv")) == first

    def test_unknown_axis_exit_2(self, synth_run, capsys):
        _tmp, _data, _out, cfg = synth_run
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", cfg, "--axis", "nope", "--values", "1"])
        assert exc.value.code == 2
        assert "VEPM-ERROR kind=config" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [",", ""])
    def test_empty_value_list_exit_2(self, synth_run, capsys, values):
        _tmp, _data, out, cfg = synth_run
        assert main(["ablate", "--config", cfg, "--axis", "tau", "--values", values]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "at least one value" in err
        assert not os.path.exists(os.path.join(out, "ablation_tau.csv"))

    @pytest.mark.parametrize("axis,values,message", [
        ("tau", "0.1,abc", "bad value for 'model.tau': 'abc'"),
        ("tau", "0.1,-1", "bad value for 'model.tau': '-1'"),
        ("k_meta", "2,2.5", "bad value for 'model.n_metacommunities': '2.5'"),
        ("partition_mode", "even,bogus", "bad value for 'model.partition_mode'"),
        ("training_scheme", "scratch,twice", "unknown training scheme 'twice'"),
    ])
    def test_every_value_is_checked_before_the_first_trains(self, synth_run, capsys,
                                                            monkeypatch, axis, values,
                                                            message):
        import vepm.pipeline as pipeline

        def unreachable(*args, **kwargs):
            raise AssertionError("a value trained")

        monkeypatch.setattr(pipeline, "_train_and_score", unreachable)
        _tmp, _data, out, cfg = synth_run
        assert main(["ablate", "--config", cfg, "--axis", axis, "--values", values]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and message in err
        assert not os.path.exists(os.path.join(out, f"ablation_{axis}.csv"))

    def test_rows_follow_the_reduced_label_run(self, synth_run):
        """At keep_rate < 1 each row is the reduced-label run with the axis
        value applied; the scratch scheme is that run without pretraining."""
        from vepm.evaluation import reduced_label_run

        _tmp, data, out, cfg = synth_run
        with open(cfg, "a") as fh:
            fh.write("keep_rate = 0.2\n")
        run = load_run_config(cfg)
        graph = load_node_dataset(data)
        for axis, value, model, train in (
                ("tau", "0.1", replace(run.model, tau=0.1), run.train),
                ("training_scheme", "scratch", run.model,
                 replace(run.train, pretrain_epochs=0))):
            assert main(["ablate", "--config", cfg, "--axis", axis,
                         "--values", value]) == 0
            rows = json.loads(read(os.path.join(out, f"ablation_{axis}.json")))["rows"]
            report = reduced_label_run(graph, 0.2, run.seed, model, train,
                                       sampler=run.sampler)
            assert rows[0]["accuracy_mean"] == report.accuracy_mean, axis


class TestConverters:
    def test_planetoid_fixture(self, tmp_path):
        # a miniature raw bundle in the pickled citation format
        raw = tmp_path / "raw"
        raw.mkdir()
        n_train, n_val, n_test, n_feat, n_cls = 4, 3, 3, 5, 2
        n = 12
        rng = np.random.default_rng(0)
        x_all = sp.csr_matrix(rng.random((n, n_feat)))
        y_all = np.zeros((n, n_cls))
        y_all[np.arange(n), rng.integers(0, n_cls, n)] = 1
        test_idx = np.array([9, 11, 10])
        test_sorted = np.sort(test_idx)

        def dump(name, obj):
            with open(raw / f"ind.tiny.{name}", "wb") as fh:
                pickle.dump(obj, fh)

        dump("x", x_all[:n_train])
        dump("y", y_all[:n_train])
        dump("allx", x_all[: n - n_test])
        dump("ally", y_all[: n - n_test])
        dump("tx", x_all[test_sorted])
        dump("ty", y_all[test_sorted])
        graph = {i: [int(j) for j in rng.integers(0, n, 2)] for i in range(n)}
        dump("graph", graph)
        np.savetxt(raw / "ind.tiny.test.index", test_idx, fmt="%d")

        out = str(tmp_path / "conv")
        assert main(["convert-planetoid", "--raw", str(raw), "--name", "tiny",
                     "--out", out]) == 0
        loaded = load_node_dataset(out)
        assert loaded.n_nodes == n
        assert loaded.n_features == n_feat
        assert loaded.train_mask.sum() == n_train
        assert loaded.val_mask.sum() == 5  # next-500 window minus test ids
        assert loaded.test_mask.sum() == n_test
        np.testing.assert_allclose(loaded.features.to_dense()[test_idx].sum(axis=1),
                                   np.asarray(x_all[test_sorted].sum(axis=1)).ravel())

    def test_tu_fixture(self, tmp_path):
        raw = tmp_path / "turaw"
        raw.mkdir()
        # two triangles, 1-indexed, labels in {-1, 1}, node labels in {3, 7}
        (raw / "TOY_A.txt").write_text(
            "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n5, 6\n6, 5\n4, 6\n6, 4\n")
        (raw / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
        (raw / "TOY_graph_labels.txt").write_text("-1\n1\n")
        (raw / "TOY_node_labels.txt").write_text("3\n7\n3\n7\n3\n7\n")
        out = str(tmp_path / "tuconv")
        assert main(["convert-tu", "--raw", str(raw), "--name", "TOY",
                     "--out", out]) == 0
        coll = load_graph_dataset(out)
        assert len(coll) == 2
        assert coll.n_classes() == 2
        assert coll.graphs[0].n_edges == 3
        assert coll.n_features == 2
        np.testing.assert_array_equal(coll.graph_labels, [0, 1])

    def test_tu_edge_between_graphs_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "turaw"
        raw.mkdir()
        # node 3 of the first graph joined to node 4 of the second
        (raw / "TOY_A.txt").write_text("1, 2\n2, 3\n3, 4\n4, 5\n")
        (raw / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
        (raw / "TOY_graph_labels.txt").write_text("0\n1\n")
        (raw / "TOY_node_labels.txt").write_text("0\n0\n0\n0\n0\n")
        assert main(["convert-tu", "--raw", str(raw), "--name", "TOY",
                     "--out", str(tmp_path / "tuconv")]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err and "edge crosses graph boundary" in err

    @pytest.mark.parametrize("edges,bad_id", [("1, 2\n4, 0\n", 0), ("1, 2\n4, 7\n", 7)])
    def test_tu_node_id_outside_range_exit_2(self, tmp_path, capsys, edges, bad_id):
        raw = tmp_path / "turaw"
        raw.mkdir()
        (raw / "TOY_A.txt").write_text(edges)
        (raw / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
        (raw / "TOY_graph_labels.txt").write_text("0\n1\n")
        (raw / "TOY_node_labels.txt").write_text("0\n0\n0\n0\n0\n0\n")
        assert main(["convert-tu", "--raw", str(raw), "--name", "TOY",
                     "--out", str(tmp_path / "tuconv")]) == 2
        err = capsys.readouterr().err
        assert "VEPM-ERROR kind=config" in err
        assert f"node id {bad_id} outside 1..6" in err

    def test_tu_single_graph(self, tmp_path):
        raw = tmp_path / "turaw"
        raw.mkdir()
        (raw / "TOY_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n")
        (raw / "TOY_graph_indicator.txt").write_text("1\n1\n1\n")
        (raw / "TOY_graph_labels.txt").write_text("1\n")
        (raw / "TOY_node_labels.txt").write_text("4\n5\n4\n")
        out = str(tmp_path / "tuconv")
        assert main(["convert-tu", "--raw", str(raw), "--name", "TOY",
                     "--out", out]) == 0
        coll = load_graph_dataset(out)
        assert len(coll) == 1
        assert coll.graphs[0].n_nodes == 3 and coll.graphs[0].n_edges == 2
        np.testing.assert_array_equal(coll.graph_labels, [0])
