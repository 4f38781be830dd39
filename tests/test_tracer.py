"""The benchmark's tracer still finds every function it wraps."""

from pathlib import Path

from jpminhash import minhash
from jpminhash.verify import REF_X, REF_Y

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    sample = minhash._PackedVectors.sample
    with tracer.Tracer() as t:
        assert minhash._PackedVectors.sample is not sample
        minhash.batch_signatures([REF_X, REF_Y], 0, 4)
    assert minhash._PackedVectors.sample is sample
    assert t.counts["minhash.hashes"] == (len(REF_X) + len(REF_Y)) * 4
