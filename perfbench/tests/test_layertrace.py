import sys

import numpy as np
import pytest

import layertrace
from layertrace import Tracer, layer_metrics, nearest_ancestor, self_times
from qybe import DeformationParameter, qcore, rop


def test_self_time_subtracts_the_union_of_children():
    # 0 root [0, 10]: children 1 [1, 3] and 2 [2, 5] overlap, 3 [8, 12] runs past the end
    # 1 has grandchild 4 [1.5, 2.5], which counts against 1 only
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_nearest_ancestor_skips_unwanted_levels():
    names = ["a", "b", "c", "a", "c"]
    parents = [-1, 0, 1, -1, 3]
    assert nearest_ancestor(names, parents, lambda n: n == "a") == [-1, 0, 0, -1, 3]


def _synthetic(tracer, spans):
    for name, start, end, parent, tag in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.tags.append(tag)
        tracer.errors.append(None)


def test_layer_metrics_on_a_synthetic_tree():
    tracer = Tracer()
    _synthetic(tracer, [
        ("rop.assemble_R", 0.0, 10.0, -1, "xxz"),
        ("tensorrep.lowest_weight_vectors", 1.0, 4.0, 0, None),
        ("tensorrep.coproduct_generators", 1.0, 2.0, 1, None),
        ("tensorrep.coproduct_generators", 2.0, 3.0, 1, None),
        ("tensorrep.lowest_weight_vectors", 5.0, 8.0, 0, None),
        ("tensorrep.coproduct_generators", 5.0, 6.0, 4, None),
        ("tensorrep.coproduct_generators", 6.0, 7.0, 4, None),
        ("tensorrep.coproduct_generators", 11.0, 12.0, -1, None),  # outside any assembly
        ("verify.check_rll", 20.0, 30.0, -1, 2),
        ("qcore.sample_generic_q", 21.0, 22.0, 8, None),
        ("qcore.sample_generic_q", 22.0, 23.0, 8, None),
        ("qcore.sample_generic_q", 23.0, 24.0, 8, None),
    ])
    tracer.counts["numpy.kron"] = 5
    out = layer_metrics(tracer)
    assert out["rop.assemble_R.calls"] == 1
    assert out["rop.assemble_R.total_s"] == pytest.approx(10.0)
    assert out["rop.assemble_R.xxz.total_s"] == pytest.approx(10.0)
    assert out["rop.assemble_R.xxx.total_s"] == 0.0
    assert out["rop.assemble_R.self_s"] == pytest.approx(4.0)
    assert out["tensorrep.lowest_weight_vectors.self_s"] == pytest.approx(2.0)
    assert out["tensorrep.coproduct_generators.calls"] == 5
    assert out["tensorrep.coproducts_per_assembly"] == 4.0
    assert out["rop.sector_builds_per_assembly"] == 2.0
    assert out["verify.check_rll.total_s"] == pytest.approx(10.0)
    assert out["verify.point_accept_ratio"] == pytest.approx(2 / 3)
    assert out["numpy.kron.calls"] == 5
    assert out["cyclic.reps_per_family"] == 0.0


def _bindings():
    """Every place the tracer may patch, with the object bound there now."""
    import qybe
    found = {}
    targets = {id(fn) for layer in layertrace.LAYERS
               for fn in vars(sys.modules[f"qybe.{layer}"]).values() if callable(fn)}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for attr, value in list(namespace.items()):
                if id(value) in targets:
                    found[(id(module), attr)] = value
    found["pow"] = qcore.DeformationParameter.__dict__["pow"]
    found["kron"] = np.kron
    for attr, value in vars(np.linalg).items():
        found[("linalg", attr)] = value
    assert qybe.rop is rop
    return found


def test_installed_wraps_and_then_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert rop.assemble_R is not before[(id(rop), "assemble_R")]
            assert np.kron is not before["kron"]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_call_matches_untraced_and_is_recorded():
    q = DeformationParameter.generic(np.exp(0.1 + 0.7j))
    plain = rop.assemble_R(1.0, 1.0, 0.3 - 0.2j, q).matrix
    tracer = Tracer()
    with tracer.installed():
        traced = rop.assemble_R(1.0, 1.0, 0.3 - 0.2j, q).matrix
    assert np.array_equal(plain, traced)
    assert tracer.names[0] == "rop.assemble_R" and tracer.tags[0] == "xxz"
    out = layer_metrics(tracer)
    assert out["tensorrep.coproducts_per_assembly"] == 4.0
    assert out["rop.sector_builds_per_assembly"] == 2.0
    assert out["numpy.kron.calls"] > 0 and out["qcore.pow.calls"] > 0
    # nothing recorded once the wrappers are gone
    rop.assemble_R(1.0, 1.0, 0.3 - 0.2j, q)
    assert layer_metrics(tracer) == out
