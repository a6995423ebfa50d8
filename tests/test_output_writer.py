"""Every CLI output is reserved before the work and written whole or not at all.

A command checks and reserves its outputs before it reads its inputs, writes
every payload to a temporary beside its target, and renames the temporaries
onto the targets at the end; a failure leaves each target as it was and no
temporary behind.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from chemspan import cli
from chemspan.checkpoint import load_ner_model, save_ner_model
from chemspan.cli import main
from chemspan.corpus import save_corpus
from chemspan.encoder import EncoderModel
from chemspan.microcorpus import build_micro_corpus


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(build_micro_corpus()[:3], path)
    return path


def one_error_line(capsys):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def listing(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir() if p.is_file()}


@pytest.mark.parametrize("command", ["train-ner", "train-re"])
def test_a_checkpoint_in_a_missing_directory_fails_before_training(
        tmp_path, corpus, capsys, monkeypatch, command):
    def fit(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(EncoderModel, "fit", fit)
    out = tmp_path / "missing" / "x.ckpt"
    assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 2
    error = one_error_line(capsys)
    assert f"No such file or directory: {str(out)!r}" in error, error
    assert not out.parent.exists()


def test_a_failed_second_write_leaves_every_target_as_it_was(tmp_path, corpus, capsys,
                                                             monkeypatch):
    report, items = tmp_path / "out" / "loss.txt", tmp_path / "out" / "items.tsv"
    report.parent.mkdir()
    report.write_bytes(b"old report\n")
    items.write_bytes(b"old items\n")
    before = listing(report.parent)
    written = []

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(file)
            if len(written) == 2:
                raise OSError(28, "No space left on device", file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report),
                 "--items", str(items)]) == 2
    error = one_error_line(capsys)
    assert "No space left on device" in error, error
    assert len(written) == 2
    assert listing(report.parent) == before


def test_a_symbolic_link_output_is_updated_through_the_link(tmp_path, corpus, capsys):
    abstracts = str(corpus / "abstracts.tsv")
    plain = tmp_path / "plain.tsv"
    assert main(["tokenize", "--in", abstracts, "--out", str(plain)]) == 0
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert main(["tokenize", "--in", abstracts, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "link.tsv", "plain.tsv",
                                                          "target.tsv"]


def test_a_new_output_takes_the_umask_and_a_replaced_one_keeps_its_mode(tmp_path, corpus):
    abstracts = str(corpus / "abstracts.tsv")
    new, kept = tmp_path / "new.tsv", tmp_path / "kept.tsv"
    kept.write_bytes(b"old\n")
    kept.chmod(0o604)
    old_umask = os.umask(0o027)
    try:
        assert main(["tokenize", "--in", abstracts, "--out", str(new)]) == 0
        assert main(["tokenize", "--in", abstracts, "--out", str(kept)]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o027
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert kept.read_bytes() == new.read_bytes()


def run_cli(*argv, timeout=60):
    """The command in its own process, so that a blocking open cannot hang the suite."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-m", "chemspan.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_a_fifo_output_is_refused_and_stays_a_fifo(tmp_path, corpus):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    done = run_cli("tokenize", "--in", corpus / "abstracts.tsv", "--out", fifo)
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"{str(fifo)!r} is not a regular file" in err[0], err
    assert done.stdout == ""
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "out.fifo"]


def test_an_output_path_ending_in_a_separator_is_refused(tmp_path, corpus, capsys):
    out = str(tmp_path / "newdir") + os.sep
    assert main(["tokenize", "--in", str(corpus / "abstracts.tsv"), "--out", out]) == 2
    error = one_error_line(capsys)
    assert f"{out!r} is not a regular file" in error, error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


# command -> a one-epoch config whose last Adam step leaves a parameter non-finite
NON_FINITE_RUNS = {
    "train-ner": {"ner": {"epochs": 1, "lr": 1e308}},
    "train-re": {"relation": {"epochs": 1, "lr": 1.7e308, "variant": "A"}},
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_RUNS))
def test_a_run_that_leaves_a_parameter_non_finite_writes_no_checkpoint(
        tmp_path, corpus, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(NON_FINITE_RUNS[command]), encoding="utf-8")
    out = tmp_path / "model.ckpt"
    assert main([command, "--corpus", str(corpus), "--config", str(config),
                 "--out", str(out)]) == 2
    error = one_error_line(capsys)
    assert "holding NaN or infinity" in error, error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus"]


def test_a_checkpoint_is_the_same_bytes_as_the_library_writes(tmp_path, corpus):
    out = tmp_path / "ner.ckpt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ner": {"epochs": 1}}), encoding="utf-8")
    assert main(["train-ner", "--corpus", str(corpus), "--config", str(config),
                 "--out", str(out)]) == 0
    again = tmp_path / "again.ckpt"
    save_ner_model(again, load_ner_model(out))
    assert again.read_bytes() == out.read_bytes()
