"""Unit tests for the command-line interface."""

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
