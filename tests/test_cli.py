"""Command-line behaviors: subcommands, exit codes, emitted files."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdeq.cli import main
from qdeq.errors import TrainingAborted
from qdeq.training import TrainConfig, build_from_config, save_checkpoint

from conftest import synthdata

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    def test_every_tuned_row_has_a_config(self):
        variants = ["implicit_warmup", "implicit", "direct1", "direct2", "direct5", "direct10"]
        prefixes = ["mnist4_amp", "mnist4_angle", "mnist10", "fashionmnist10", "cifar10"]
        for prefix in prefixes:
            for variant in variants:
                path = CONFIG_DIR / f"{prefix}_{variant}.json"
                assert path.is_file(), f"missing shipped config {path.name}"
                TrainConfig.from_dict(json.loads(path.read_text()))

    def test_tuned_values_match_hyperparameter_table(self):
        warm = json.loads((CONFIG_DIR / "mnist4_amp_implicit_warmup.json").read_text())
        assert warm["learning_rate"] == 0.05
        assert warm["warmup_steps"] == 1875
        assert warm["jac_loss_weight"] == 0.0 and warm["jac_loss_freq"] == 0.0
        m10 = json.loads((CONFIG_DIR / "mnist10_implicit.json").read_text())
        assert m10["jac_loss_weight"] == 0.8 and m10["jac_loss_freq"] == 1.0
        cifar = json.loads((CONFIG_DIR / "cifar10_implicit_warmup.json").read_text())
        assert cifar["epochs"] == 25 and cifar["warmup_steps"] == 2350
        d10 = json.loads((CONFIG_DIR / "mnist4_amp_direct10.json").read_text())
        assert d10["learning_rate"] == 0.1

    # ten-class implicit configs carry jac_loss_freq > 0: one penalized step
    # costs ~2p forward-equivalents, so those two run under the slow gate
    _FAST = sorted(
        p.name
        for p in CONFIG_DIR.glob("*.json")
        if p.name not in ("mnist10_implicit.json", "fashionmnist10_implicit.json")
    )

    @staticmethod
    def _tiny_bundle(cfg, data_dir):
        import dataclasses

        from qdeq.datasets import prepare_bundle

        bundle = prepare_bundle(cfg.dataset, data_dir, cfg.seed, subset=64)
        return dataclasses.replace(
            bundle,
            x_val=bundle.x_val[:16],
            y_val=bundle.y_val[:16],
            x_test=bundle.x_test[:16],
            y_test=bundle.y_test[:16],
        )

    @pytest.mark.parametrize("name", _FAST)
    def test_every_config_trains_one_epoch(self, name, digits_data_dir):
        from qdeq.training import build_from_config, train

        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["epochs"] = 1
        cfg = TrainConfig.from_dict(raw)
        bundle = self._tiny_bundle(cfg, digits_data_dir)
        model, head = build_from_config(cfg)
        metrics, adam = train(bundle, model, head, cfg)
        assert adam.t >= 1
        assert np.isfinite(metrics.epochs[0]["train_loss"])

    @pytest.mark.parametrize("name", ["mnist10_implicit.json", "fashionmnist10_implicit.json"])
    def test_penalized_ten_class_configs_train_one_epoch(self, name, digits_data_dir):
        # Q=10 with the Jacobian penalty (weight 0.5-0.8): the per-stretch bra terms and the
        # penalty's tangents ride in one sweep; no benchmark workload runs this path
        from qdeq.training import build_from_config, train

        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["epochs"] = 1
        cfg = TrainConfig.from_dict(raw)
        bundle = self._tiny_bundle(cfg, digits_data_dir)
        model, head = build_from_config(cfg)
        metrics, adam = train(bundle, model, head, cfg)
        assert adam.t >= 1
        assert np.isfinite(metrics.epochs[0]["train_loss"])


@pytest.fixture
def smoke_config(tmp_path):
    cfg = {
        "dataset": "mnist4",
        "encoding": "amplitude",
        "solver_mode": "implicit_warmup",
        "learning_rate": 0.05,
        "epochs": 2,
        "batch_size": 128,
        "warmup_steps": 5,
        "seed": 7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestUsage:
    def test_unknown_flag_exits_one_with_usage(self, capsys):
        assert main(["train", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 1


# the one suite that writes angle_overlap.csv into --output-dir
ANGLE_CSV = ["verify-bounds", "--suite", "angle-overlap"]


class TestVerifyBounds:
    def test_angle_suite_ok_and_csv(self, tmp_path, capsys):
        code = main(
            ["verify-bounds", "--suite", "angle-overlap", "--pairs", "300", "--output-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "violations=0" in out
        lines = (tmp_path / "angle_overlap.csv").read_text().strip().splitlines()
        assert lines[0] == "dist_sq,overlap,bound"
        assert len(lines) == 301

    def test_trig_suite(self, capsys):
        assert main(["verify-bounds", "--suite", "trig-inequality", "--pairs", "5000"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_contraction_suite(self, capsys):
        assert main(["verify-bounds", "--suite", "contraction", "--pairs", "400"]) == 0

    def test_amplitude_suite(self, capsys):
        assert main(["verify-bounds", "--suite", "amplitude-overlap", "--pairs", "500"]) == 0

    @pytest.mark.parametrize("command", [["verify-bounds", "--suite", "amplitude-overlap"], ANGLE_CSV])
    @pytest.mark.parametrize("pairs", ["-5", "0", "many"])
    def test_pairs_must_be_a_positive_integer(self, command, pairs, tmp_path, capsys):
        assert main([*command, "--pairs", pairs, "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "--pairs" in err
        assert not (tmp_path / "angle_overlap.csv").exists()

    @pytest.mark.parametrize("option, value", [("--pairs", "\u0665"), ("--seed", "\u0663"), ("--pairs", "\uff15")])
    def test_non_ascii_digits_rejected(self, option, value, tmp_path, capsys):
        args = {"--pairs": "10", "--seed": "3", option: value}
        argv = ["verify-bounds", "--suite", "trig-inequality", "--output-dir", str(tmp_path)]
        assert main(argv + [a for item in args.items() for a in item]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower() and option in err

    @pytest.mark.parametrize("command", [["verify-bounds", "--suite", "amplitude-overlap"], ANGLE_CSV])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, command, seed, tmp_path, capsys):
        assert main([*command, "--pairs", "10", "--seed", seed, "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower() and "--seed" in err
        assert not (tmp_path / "angle_overlap.csv").exists()


class TestTrainEval:
    def test_end_to_end_on_digits(self, tmp_path, smoke_config, digits_data_dir, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "train",
                "--config",
                str(smoke_config),
                "--data-dir",
                str(digits_data_dir),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        # metrics CSV with the documented columns
        lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,phase,train_loss,train_acc,val_acc,mean_residual"
        assert len(lines) == 3  # header + 2 epochs
        # config echo re-parses to an identical config
        echoed = TrainConfig.from_dict(json.loads((out_dir / "config.json").read_text()))
        assert echoed == TrainConfig.from_dict(json.loads(smoke_config.read_text()))
        # checkpoint exists and eval runs against it
        assert (out_dir / "checkpoint.txt").exists()
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--checkpoint",
                str(out_dir / "checkpoint.txt"),
                "--split",
                "test",
                "--data-dir",
                str(digits_data_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "mean_residual=" in out

    def test_train_log_reports_unconverged_rows(self, tmp_path, smoke_config, digits_data_dir, capsys):
        args = ["--config", str(smoke_config), "--data-dir", str(digits_data_dir), "--output-dir", str(tmp_path)]
        assert main(["train", *args]) == 0
        epoch_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epoch")]
        assert len(epoch_lines) == 2
        assert all(re.search(r" unconverged \d+$", line) for line in epoch_lines)

    def test_eval_on_empty_split_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data"
        synthdata.write_mnist(data, 0, train_per_class=5, test_per_class=0)
        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05)
        model, head = build_from_config(cfg)
        save_checkpoint(tmp_path / "ckpt.txt", cfg, model, head)
        code = main(["eval", "--checkpoint", str(tmp_path / "ckpt.txt"), "--split", "test", "--data-dir", str(data)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_with_out_of_range_labels_exits_one(self, tmp_path, digits_data_dir, monkeypatch, capsys):
        import qdeq.cli as cli_mod

        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05)
        model, head = build_from_config(cfg)
        save_checkpoint(tmp_path / "ckpt.txt", cfg, model, head)
        bundle = cli_mod.prepare_bundle(cfg.dataset, digits_data_dir, cfg.seed)
        bad = dataclasses.replace(bundle, y_test=np.full_like(bundle.y_test, 7))
        monkeypatch.setattr(cli_mod, "prepare_bundle", lambda *args, **kwargs: bad)
        code = main(["eval", "--checkpoint", str(tmp_path / "ckpt.txt"), "--split", "test",
                     "--data-dir", str(digits_data_dir)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_batches_rows_as_the_checkpoint_config_does(self, tmp_path, digits_data_dir, capsys):
        # Broyden stops when every row of a batch has converged, so the residual depends on the batching
        from qdeq.datasets import prepare_bundle
        from qdeq.training import SolverMode, evaluate

        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05, batch_size=64, seed=1)
        model, head = build_from_config(cfg)
        save_checkpoint(tmp_path / "ckpt.txt", cfg, model, head)
        bundle = prepare_bundle(cfg.dataset, digits_data_dir, cfg.seed)
        mode = SolverMode.parse(cfg.solver_mode)
        _, residual = evaluate(model, head, bundle.x_test, bundle.y_test, mode, batch_size=64)
        _, residual_256 = evaluate(model, head, bundle.x_test, bundle.y_test, mode, batch_size=256)
        assert f"{residual:.3e}" != f"{residual_256:.3e}"
        args = ["--checkpoint", str(tmp_path / "ckpt.txt"), "--split", "test", "--data-dir", str(digits_data_dir)]
        assert main(["eval", *args]) == 0
        assert f"mean_residual={residual:.3e}" in capsys.readouterr().out

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_eval_featurises_only_its_split(self, tmp_path, digits_data_dir, monkeypatch, capsys, split):
        from qdeq import datasets

        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05, seed=1)
        model, head = build_from_config(cfg)
        save_checkpoint(tmp_path / "ckpt.txt", cfg, model, head)
        bundle = datasets.prepare_bundle(cfg.dataset, digits_data_dir, cfg.seed)
        featurised = []
        original = datasets._features
        monkeypatch.setattr(datasets, "_features", lambda name, images: featurised.append(len(images))
                            or original(name, images))
        args = ["--checkpoint", str(tmp_path / "ckpt.txt"), "--split", split, "--data-dir", str(digits_data_dir)]
        assert main(["eval", *args]) == 0
        assert featurised == [len(getattr(bundle, f"y_{split}"))]
        featurised.clear()
        assert datasets.prepare_bundle(cfg.dataset, digits_data_dir, cfg.seed).x_train is not None
        assert featurised == [len(bundle.y_train), len(bundle.y_val), len(bundle.y_test)]
        assert f"split={split} " in capsys.readouterr().out

    def test_seed_override_lands_in_echo(self, tmp_path, smoke_config, digits_data_dir):
        out_dir = tmp_path / "run2"
        code = main(
            [
                "train",
                "--config",
                str(smoke_config),
                "--data-dir",
                str(digits_data_dir),
                "--output-dir",
                str(out_dir),
                "--seed",
                "99",
            ]
        )
        assert code == 0
        assert json.loads((out_dir / "config.json").read_text())["seed"] == 99

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
    def test_seed_flag_outside_64_bits_exits_one(self, tmp_path, smoke_config, digits_data_dir, capsys, seed):
        out_dir = tmp_path / "o"
        args = ["--config", str(smoke_config), "--data-dir", str(digits_data_dir), "--output-dir", str(out_dir)]
        assert main(["train", *args, "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key_exits_one(self, tmp_path, digits_data_dir, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 0.05, "typo_key": 1}))
        code = main(
            ["train", "--config", str(path), "--data-dir", str(digits_data_dir), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["5", "null", "[1, 2]", '"implicit"', b"\xff\xfe\x00bad"])
    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]], ids=["config-seed", "flag-seed"])
    def test_config_that_is_no_json_object_exits_one(self, tmp_path, digits_data_dir, capsys, literal, seed_flag):
        path = tmp_path / "bad.json"
        path.write_bytes(literal if isinstance(literal, bytes) else literal.encode())
        args = ["--config", str(path), "--data-dir", str(digits_data_dir), "--output-dir", str(tmp_path / "o")]
        assert main(["train", *args, *seed_flag]) == 1
        err = capsys.readouterr().err
        if isinstance(literal, bytes):  # not UTF-8 text: the decode error, no traceback
            assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        else:
            assert "error: a config must be a JSON object" in err

    def test_checkpoint_config_that_is_no_json_object_exits_one(self, tmp_path, digits_data_dir, capsys):
        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head)
        payload = json.loads(path.read_text())
        payload["config"] = 5
        path.write_text(json.dumps(payload))
        code = main(["eval", "--checkpoint", str(path), "--data-dir", str(digits_data_dir)])
        assert code == 1
        assert "error: a config must be a JSON object" in capsys.readouterr().err

    def test_eval_on_checkpoint_that_is_no_utf8_text_exits_one(self, tmp_path, digits_data_dir, capsys):
        path = tmp_path / "ckpt.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        code = main(["eval", "--checkpoint", str(path), "--data-dir", str(digits_data_dir)])
        assert code == 1
        assert f"error: checkpoint {path} is not valid JSON" in capsys.readouterr().err

    def test_eval_on_checkpoint_with_nan_exits_one(self, tmp_path, digits_data_dir, capsys):
        cfg = TrainConfig(dataset="mnist4", solver_mode="implicit", learning_rate=0.05)
        model, head = build_from_config(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, cfg, model, head)
        payload = json.loads(path.read_text())
        payload["head_weight"][0][0] = float("nan")
        path.write_text(json.dumps(payload))
        code = main(["eval", "--checkpoint", str(path), "--split", "test", "--data-dir", str(digits_data_dir)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, literal", [("epochs", '"3"'), ("epochs", "2.5"), ("batch_size", "true"), ("learning_rate", "NaN")]
    )
    def test_mistyped_config_value_exits_one(self, tmp_path, digits_data_dir, capsys, key, literal):
        base = {"dataset": "mnist4", "solver_mode": "implicit", "learning_rate": 0.05}
        base.pop(key, None)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base)[:-1] + f', "{key}": {literal}}}')  # json reads NaN too
        code = main(
            ["train", "--config", str(path), "--data-dir", str(digits_data_dir), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err

    def test_missing_data_dir_exits_one(self, tmp_path, smoke_config, monkeypatch, capsys):
        monkeypatch.delenv("QDEQ_DATA_DIR", raising=False)
        code = main(["train", "--config", str(smoke_config), "--output-dir", str(tmp_path / "o")])
        assert code == 1

    def test_env_data_dir_fallback(self, tmp_path, smoke_config, digits_data_dir, monkeypatch):
        monkeypatch.setenv("QDEQ_DATA_DIR", str(digits_data_dir))
        out_dir = tmp_path / "env-run"
        assert main(["train", "--config", str(smoke_config), "--output-dir", str(out_dir)]) == 0

    def test_solver_abort_maps_to_exit_two(self, tmp_path, smoke_config, digits_data_dir, monkeypatch):
        import qdeq.cli as cli_mod

        def explode(*args, **kwargs):
            raise TrainingAborted("too many diverged batches", {"epoch": 0})

        monkeypatch.setattr(cli_mod, "train", explode)
        code = main(
            [
                "train",
                "--config",
                str(smoke_config),
                "--data-dir",
                str(digits_data_dir),
                "--output-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
