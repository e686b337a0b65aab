"""Unit tests for the command-line interface."""

import hashlib
import json
import shutil

import pytest

from repro.bgpsim.shards import MetricShardReader
from repro.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    rel = base / "net.as-rel2.txt"
    mrt = base / "rib.txt"
    code = main(
        [
            "generate", "tiny", "-o", str(rel), "--seed", "5",
            "--mrt", str(mrt),
        ]
    )
    assert code == 0
    return rel, mrt


class TestGenerate:
    def test_writes_caida_file(self, generated, capsys):
        rel, mrt = generated
        assert rel.exists() and mrt.exists()
        text = rel.read_text()
        assert text.startswith("#")
        assert "|" in text.splitlines()[2]
        assert "TABLE_DUMP2|" in mrt.read_text()

    def test_serial1_output(self, tmp_path, capsys):
        out = tmp_path / "s1.txt"
        assert main(["generate", "tiny", "-o", str(out), "--serial", "1"]) == 0
        data_lines = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ]
        assert all(len(l.split("|")) == 3 for l in data_lines)

    def test_unknown_profile_fails(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "bogus", "-o", str(tmp_path / "x.txt")])


class TestReach:
    def test_reach_known_origin(self, generated, capsys):
        rel, _ = generated
        assert main(["reach", str(rel), "15169"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy-free" in out
        assert "AS15169" in out

    def test_reach_unknown_origin(self, generated, capsys):
        rel, _ = generated
        assert main(["reach", str(rel), "999999"]) == 1
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_ranked_table(self, generated, capsys):
        rel, _ = generated
        assert main(["sweep", str(rel), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("AS") >= 5
        assert "1." in out


class TestLeak:
    def test_leak_all_configs(self, generated, capsys):
        rel, _ = generated
        assert main(["leak", str(rel), "15169", "--leakers", "8"]) == 0
        out = capsys.readouterr().out
        assert "announce_all" in out
        assert "announce_hierarchy_only" in out

    def test_leak_single_config(self, generated, capsys):
        rel, _ = generated
        assert (
            main(
                [
                    "leak", str(rel), "15169", "--leakers", "5",
                    "--config", "announce_all",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "announce_all" in out
        assert "t1t2_lock" not in out

    def test_leak_workers_match_serial(self, generated, capsys):
        rel, _ = generated
        argv = ["leak", str(rel), "15169", "--leakers", "8"]
        outputs = []
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert "announce_all" in outputs[0]
        assert outputs[1] == outputs[0]


@pytest.fixture(scope="module")
def tiny_default(tmp_path_factory):
    """The ``tiny`` topology at its default seed, as ``repro generate tiny
    -o tiny.txt`` writes it (the EXPERIMENTS.md worked examples)."""
    rel = tmp_path_factory.mktemp("cli-tiny") / "tiny.txt"
    assert main(["generate", "tiny", "-o", str(rel)]) == 0
    return rel


class TestTimeline:
    def test_worked_example(self, tiny_default, capsys):
        assert main(
            [
                "timeline", str(tiny_default), "30009", "--events",
                "depeer:30009-1299,down:22356-30009,up:22356-30009:p2c",
                "--targets", "22356",
            ]
        ) == 0
        out = capsys.readouterr().out
        reachable = [
            int(line.split("reachable=")[1].split()[0])
            for line in out.splitlines()
            if "reachable=" in line
        ]
        assert reachable == [132, 132, 88, 132]
        step2 = out.split("link-down AS22356—AS30009")[1].splitlines()[1]
        assert "reliance=17.0000 hegemony=0.1127" in step2
        assert "3 baseline invalidations" in out

    def test_existing_link_up_is_refused(self, tiny_default, capsys):
        # AS30009 already peers with AS1299: the inverse of raising that
        # link again would delete it
        code = main(
            ["timeline", str(tiny_default), "30009", "--events",
             "up:30009-1299"]
        )
        assert code == 1
        assert "already linked" in capsys.readouterr().err

    def test_missing_link_down_is_refused(self, tiny_default, capsys):
        code = main(
            ["timeline", str(tiny_default), "30009", "--events",
             "down:30009-15169"]
        )
        assert code == 1
        assert "no edge between AS30009 and AS15169" in capsys.readouterr().err


class TestInfer:
    def test_infer_with_truth_and_output(self, generated, tmp_path, capsys):
        rel, mrt = generated
        out_file = tmp_path / "inferred.txt"
        assert (
            main(
                [
                    "infer", str(mrt), "--algorithm", "asrank",
                    "--truth", str(rel), "-o", str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "inferred" in out
        assert "overall" in out
        assert out_file.exists()

    def test_infer_gao(self, generated, capsys):
        _, mrt = generated
        assert main(["infer", str(mrt), "--algorithm", "gao"]) == 0
        assert "gao" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("generate", "reach", "sweep", "leak", "infer"):
            assert command in out

    def test_engine_choices_are_fast_path_and_oracle(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "--vector" not in out and "--shm" not in out
        with pytest.raises(SystemExit):
            main(["leak", "--help"])
        assert "{compiled,reference}" in capsys.readouterr().out

    def test_workers_only_where_a_pool_runs(self, capsys):
        # a timeline runs in-process; precompute pools its metric pass
        with pytest.raises(SystemExit):
            main(["timeline", "--help"])
        out = capsys.readouterr().out
        assert "--workers" not in out and "--shm" not in out
        with pytest.raises(SystemExit):
            main(["precompute", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "worker processes for the metric pass" in out


def _corpus_digests(root):
    """``{file name: sha256}`` of every shard file under ``root``."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in ("*/*.shard", "*/*.mshard")
        for path in root.glob(pattern)
    }


class TestPrecompute:
    def test_metric_pass_workers_change_no_byte(
        self, generated, tmp_path, capsys
    ):
        # --workers pools the metric pass only; the routing pass that
        # writes the manifest runs in-process
        rel, _ = generated
        roots = {}
        for workers in ("1", "2"):
            root = tmp_path / f"w{workers}"
            argv = ["precompute", str(rel), "-o", str(root), "--metrics",
                    "-q", "--shard-size", "64", "--workers", workers]
            assert main(argv) == 0
            roots[workers] = root
        serial, parallel = (_corpus_digests(r) for r in roots.values())
        assert any(name.endswith(".mshard") for name in serial)
        assert parallel == serial
        for root in roots.values():
            manifest_path = next(root.glob("*/manifest.json"))
            manifest = json.loads(manifest_path.read_text())
            assert manifest["workers"] == 1
            assert "shm" not in manifest


class TestVerify:
    @pytest.fixture(scope="class")
    def shard_root(self, generated, tmp_path_factory):
        rel, _ = generated
        root = tmp_path_factory.mktemp("verify") / "shards"
        argv = ["precompute", str(rel), "-o", str(root), "--metrics", "-q"]
        assert main([*argv, "--shard-size", "64"]) == 0
        return root

    def test_clean_corpus(self, shard_root, capsys):
        capsys.readouterr()
        assert main(["verify", str(shard_root)]) == 0
        out = capsys.readouterr().out
        assert "routing records in 3 file(s)" in out
        assert "metric records in 3 file(s)" in out

    def test_bit_flipped_copy(self, shard_root, tmp_path, capsys):
        corpus = next(shard_root.glob("*/manifest.json")).parent
        copy = tmp_path / "copy"
        shutil.copytree(corpus, copy)
        shard = copy / "metrics-00001.mshard"
        with MetricShardReader(shard) as reader:
            victim = reader.origins[7]
            offset, nbytes, _crc = reader._index[victim]
        data = bytearray(shard.read_bytes())
        data[offset + nbytes - 1] ^= 0x80
        shard.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify", str(copy)]) == 1
        err = capsys.readouterr().err
        assert str(shard) in err and f"AS{victim} " in err
