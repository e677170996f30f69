"""Replay the frozen CLI corpus and demand byte-identical artifacts."""

import pytest

from goldencheck import DATA_DIR, DOCS, RUNS, replay, verify_all


def test_corpus_is_present():
    assert len(DOCS) >= 20
    for name in DOCS:
        assert (DATA_DIR / "docs" / f"{name}.json").is_file()
    for _, _, _, artifact in RUNS:
        assert (DATA_DIR / "golden" / artifact).is_file()


@pytest.mark.parametrize("name", [r[0] for r in RUNS])
def test_replay_matches_golden(name, tmp_path):
    spec = next(r for r in RUNS if r[0] == name)
    code, produced = replay(name, tmp_path)
    assert code == spec[2]
    assert produced == (DATA_DIR / "golden" / spec[3]).read_bytes()


@pytest.mark.parametrize("name", ["render-doubled", "emit-conf-bar", "perturb-doubled"])
def test_repeat_runs_are_byte_stable(name, tmp_path):
    first = replay(name, tmp_path / "a")
    second = replay(name, tmp_path / "b")
    assert first == second


def test_verify_all_counts(tmp_path):
    assert verify_all(tmp_path) == len(RUNS)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_builders_reproduce_frozen_documents(name):
    # a builder that drifts from its frozen document would rewrite it on
    # the next regeneration, so every builder must give the frozen bytes
    frozen = (DATA_DIR / "docs" / f"{name}.json").read_bytes()
    assert DOCS[name]().encode("utf-8") == frozen
