"""CLI subcommands, config validation, exit codes, determinism."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from postsched import cli
from postsched.cli import main, parse_config
from postsched.errors import ConfigError

MONDAY = 1420416000


def run(args):
    return main([str(a) for a in args])


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def synth_config(tmp_path, **extra):
    out = tmp_path / "run"
    kv = dict(
        out=out,
        seed=5,
        synth_authors=3,
        synth_followers=4,
        synth_span_days=21,
        synth_follower_peak_rate=1.0,
        synth_follower_base_rate=0.002,
        synth_author_base_rate=0.4,
        synth_reaction_probability=0.9,
        derivation_days=14,
        evaluation_days=7,
        ranks=4,
        sample_budget=200,
    )
    kv.update(extra)
    return write_config(tmp_path / "base.config", **kv), out


def digest_dir(out):
    digests = {}
    for p in sorted(Path(out).glob("*")):
        if p.is_file():
            digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c", posts="x.tsv", bogus_key=1)
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(cfg)

    def test_bad_type_names_field(self, tmp_path):
        cfg = write_config(tmp_path / "c", ranks="many")
        with pytest.raises(ConfigError, match="ranks"):
            parse_config(cfg)

    def test_iso_dates_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c",
                                        derivation_start="2015-01-05"))
        assert cfg.derivation_start == MONDAY

    def test_overlapping_windows_name_both_fields(self, tmp_path):
        cfg = write_config(tmp_path / "c",
                           derivation_start=MONDAY, derivation_days=63,
                           evaluation_start=MONDAY + 86400,
                           evaluation_days=7)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert "derivation_start" in str(exc.value)
        assert "evaluation_start" in str(exc.value)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c"
        p.write_text("# comment\n\nseed=9\n", encoding="utf-8")
        assert parse_config(p).seed == 9

    def test_evaluation_defaults_to_adjacent_window(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c",
                                        derivation_start=MONDAY,
                                        derivation_days=63))
        assert cfg.evaluation_window.start == MONDAY + 63 * 86400
        assert not cfg.evaluation_window.overlaps(cfg.derivation_window)


class TestExitCodes:
    def test_bad_config_returns_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c", network="ZZ")
        assert run(["ptr", "--config", cfg]) == 1
        assert "network" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("alpha", "nan"),
        ("alpha", "-50"),
        ("beta", "inf"),
        ("metric_bin_width", "nan"),
        ("max_malformed_frac", "-inf"),
        ("delay_lag_s", "0"),
        ("delay_window_s", "0"),
        ("buckets_per_week", "168"),    # with the default 900 s lag
        ("buckets_per_week", "1000"),   # does not divide a week
        ("metric_bin_width", "0"),
        ("metric_bin_width", "0.07"),   # does not divide [-1, 1]
        ("metric_bin_width", "-0.05"),
        ("metric_bin_width", "1e-9"),   # 2e9 bins
    ])
    def test_config_hole_returns_one_naming_key(self, tmp_path, capsys,
                                                key, value):
        cfg = write_config(tmp_path / "c", out=tmp_path / "o", **{key: value})
        assert run(["all", "--config", cfg]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["4:x", "5:2", "1:2:3", "3:", "", "-1"])
    def test_bad_synth_followers_returns_one(self, tmp_path, capsys, value):
        cfg, out = synth_config(tmp_path, synth_followers=value)
        assert run(["synth", "--config", cfg]) == 1
        assert "synth_followers" in capsys.readouterr().err
        assert not (out / "posts.tsv").exists()

    @pytest.mark.parametrize("value", ["0", "7", "2:5", "3:3"])
    def test_synth_followers_grammar_accepted(self, tmp_path, value):
        cfg, _ = synth_config(tmp_path, synth_followers=value)
        assert parse_config(cfg).synth_followers == value

    def test_non_utf8_input_returns_two_naming_file(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        with open(out / "posts.tsv", "ab") as fh:
            fh.write(b"TW\ta00000\tbad\xff\t1420416000\n")
        capsys.readouterr()
        assert run(["ptr", "--config", out / "synth.config"]) == 2
        assert "posts.tsv" in capsys.readouterr().err

    def test_non_utf8_config_returns_one_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.config"
        cfg.write_bytes(b"seed=1\nnetwork=T\xffW\n")
        assert run(["ptr", "--config", cfg]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_missing_input_file_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c", posts="nope.tsv",
                           reactions="nope2.tsv", out=tmp_path / "o")
        assert run(["ptr", "--config", cfg]) == 1
        assert "posts" in capsys.readouterr().err

    def test_missing_upstream_artifact_returns_two(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["evaluate", "--config", out / "synth.config"]) == 2
        assert "schedule" in capsys.readouterr().err

    @staticmethod
    def _negate_one(probs):
        # Moves mass so the row still sums to 1 but one entry is negative.
        values = [float(x) for x in probs]
        i = next(i for i, v in enumerate(values) if v > 0)
        values[i], values[i - 1] = -values[i], values[i - 1] + 2 * values[i]
        return [repr(v) for v in values]

    @pytest.mark.parametrize("case", [
        "cut_off", "not_a_number", "short_row", "fields", "negative", "sum"])
    def test_malformed_schedules_return_two_naming_line(self, tmp_path, capsys,
                                                        case):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        path = out / "schedules.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        user, prov, probs = lines[1].split("\t")
        probs = probs.split(",")
        if case == "cut_off":  # the file ends inside the second row
            lines = lines[:1] + [lines[1][:lines[1].rindex(",") + 1]]
        elif case == "not_a_number":
            lines[1] = "\t".join([user, prov, ",".join(["x"] + probs[1:])])
        elif case == "short_row":
            lines[1] = "\t".join([user, prov, ",".join(probs[:-1])])
        elif case == "fields":
            lines[1] = user + "\t" + prov
        elif case == "negative":
            lines[1] = "\t".join([user, prov, ",".join(self._negate_one(probs))])
        else:
            doubled = [repr(2 * float(x)) for x in probs]
            lines[1] = "\t".join([user, prov, ",".join(doubled)])
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        for sub in ("evaluate", "analyze"):
            assert run([sub, "--config", out / "synth.config"]) == 2
            assert "schedules.tsv:2:" in capsys.readouterr().err

    def test_offset_off_the_bucket_grid_returns_two_naming_user(self, tmp_path,
                                                                capsys):
        # 330 minutes (India) is not a whole number of 60-minute buckets
        # from the UTC cohort of the other users with a schedule.
        cfg, out = synth_config(tmp_path, buckets_per_week=168,
                                delay_lag_s=3600)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        s1 = [line.split("\t")[0] for line in
              (out / "schedules.tsv").read_text(encoding="utf-8").splitlines()
              if line.split("\t")[1] == "S1"]
        assert len(s1) >= 2
        users = out / "users.tsv"
        users.write_text(users.read_text(encoding="utf-8").replace(
            f"{s1[-1]}\t0\t", f"{s1[-1]}\t330\t"), encoding="utf-8")
        capsys.readouterr()
        assert run(["all", "--config", out / "synth.config"]) == 2
        err = capsys.readouterr().err
        assert s1[-1] in err and "330" in err
        assert not (out / "cohort_series.csv").exists()

    def test_empty_evaluation_window_diagnostic(self, tmp_path, capsys):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["schedule", "--config", out / "synth.config"]) == 0
        # An evaluation window far beyond the synthetic span has no posts.
        kv = {line.split("=")[0]: line.split("=", 1)[1]
              for line in (out / "synth.config").read_text().splitlines()}
        kv["evaluation_start"] = MONDAY + 10 * 365 * 86400
        far = write_config(tmp_path / "far.config", **kv)
        assert run(["evaluate", "--config", far]) == 2
        assert "evaluation" in capsys.readouterr().err
        assert not (out / "gain_by_rank.csv").exists()


class TestSynthStage:
    def test_writes_canonical_files_and_config(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        for name in ("posts.tsv", "reactions.tsv", "edges.tsv", "users.tsv",
                     "truth.tsv", "synth.config", "manifest.json"):
            assert (out / name).exists(), name

    def test_delta_kernel_ptr_roundtrip(self, tmp_path):
        cfg, out = synth_config(tmp_path, synth_kernel="delta:0")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        lines = (out / "delay_kernel.tsv").read_text().strip().split("\n")
        rows = [l.split("\t") for l in lines if not l.startswith("#")]
        assert float(rows[0][1]) == 1.0
        assert all(float(r[1]) == 0.0 for r in rows[1:])


class TestFullChain:
    def test_all_runs_and_is_deterministic(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        for name in ("ingest_report.json", "delay_kernel.tsv",
                     "cumulative_curve.csv", "delay_quantiles.tsv",
                     "schedules.tsv", "baselines.tsv", "recommended.tsv",
                     "ranked_times.tsv", "gain_report.tsv", "gain_by_rank.csv",
                     "cohort_series.csv", "metric_distributions.csv",
                     "manifest.json"):
            assert (out / name).exists(), name
        first = digest_dir(out)
        assert run(["all", "--config", out / "synth.config"]) == 0
        assert digest_dir(out) == first

    def test_manifest_lists_inputs_and_outputs(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "all"
        assert any(p.endswith("posts.tsv") for p in manifest["inputs"])
        assert any(p.endswith("gain_report.tsv") for p in manifest["outputs"])
        assert manifest["parameters"]["seed"] == 5

    def test_rerun_from_manifest_parameters_reproduces_digests(self, tmp_path):
        from postsched.cli import RunConfig, _run

        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        before = digest_dir(out)
        rebuilt = RunConfig(**manifest["parameters"])
        _run("all", rebuilt)
        assert digest_dir(out) == before

    def test_gain_report_shape(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["all", "--config", out / "synth.config"]) == 0
        lines = (out / "gain_by_rank.csv").read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "schedule,rank,rg_avg,users,posts"
        schedules = {r.split(",")[0] for r in rows}
        assert {"S1", "S2", "S1w", "S2w", "MFU", "AFD"} <= schedules
        for sched in schedules:
            assert sum(1 for r in rows if r.startswith(sched + ",")) == 4

    def test_inputs_are_parsed_once_per_run(self, tmp_path, monkeypatch):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        calls = Counter()
        for name in ("load_posts", "load_reactions", "join_reactions",
                     "load_graph", "load_users"):
            def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        assert run(["all", "--config", out / "synth.config"]) == 0
        assert calls == {"load_posts": 1, "load_reactions": 1,
                         "join_reactions": 1, "load_graph": 1, "load_users": 1}
        # A single subcommand parses only the files it reads.
        calls.clear()
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        assert calls == {"load_posts": 1, "load_reactions": 1,
                         "join_reactions": 1}

    def test_cumulative_curve_ends_at_one(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        assert run(["ptr", "--config", out / "synth.config"]) == 0
        last = (out / "cumulative_curve.csv").read_text().strip().split("\n")[-1]
        assert float(last.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg, out = synth_config(tmp_path)
        assert run(["synth", "--config", cfg]) == 0
        posts_a = (out / "posts.tsv").read_bytes()
        assert run(["synth", "--config", cfg, "--seed", "99"]) == 0
        assert (out / "posts.tsv").read_bytes() != posts_a
