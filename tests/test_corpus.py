"""scripts/make_corpus.py reproduces the sample tables in data/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_corpus_reproduces_data_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_corpus", ROOT / "scripts" / "make_corpus.py"
    )
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    monkeypatch.setattr(make_corpus, "DATA", tmp_path)
    make_corpus.main()
    capsys.readouterr()
    expected = sorted(p.name for p in (ROOT / "data").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()
