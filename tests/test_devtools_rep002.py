"""REP002 fixtures: buffered fancy-index accumulation in engine code."""

import textwrap

from repro.devtools import check_source

ENGINE_PATH = "src/repro/engine/messaging.py"
STREAM_PATH = "src/repro/ooc/pregel_stream.py"


def _rep002(source, path=ENGINE_PATH):
    findings = check_source(textwrap.dedent(source), path=path)
    return [f for f in findings if f.rule == "REP002"]


class TestRep002Positives:
    def test_augmented_assign_with_index_array_name(self):
        findings = _rep002("outbox[indices] += messages\n")
        assert len(findings) == 1
        assert "ufunc.at" in findings[0].message

    def test_augmented_assign_with_idx_suffix(self):
        assert len(_rep002("merged[local_idx] += values\n")) == 1

    def test_augmented_assign_with_attribute_index(self):
        assert len(_rep002("outbox[plan.slots] += messages\n")) == 1

    def test_augmented_assign_with_call_index(self):
        assert len(_rep002("out[np.nonzero(mask)] += 1\n")) == 1

    def test_augmented_assign_with_slice_subscript_index(self):
        assert len(_rep002("out[order[:n]] += 1\n")) == 1

    def test_buffered_ufunc_with_subscript_out(self):
        assert len(_rep002("np.add(a, b, out=merged[inverse])\n")) == 1

    def test_buffered_minimum_with_subscript_out(self):
        assert len(_rep002("np.minimum(a, b, out=dist[mask])\n")) == 1

    def test_stream_scan_fold_is_in_scope(self):
        # The mmap stream scan relies on the same left-fold order.
        assert len(_rep002("acc[target_idx] += messages\n", path=STREAM_PATH)) == 1


class TestRep002Negatives:
    def test_scalar_loop_index_is_fine(self):
        source = """
        for partition_id in range(parts):
            partition_units[partition_id] += units
        """
        assert _rep002(source) == []

    def test_singular_name_index_is_fine(self):
        source = """
        target = loads.index(min(loads))
        loads[target] += weight
        """
        assert _rep002(source) == []

    def test_unbuffered_ufunc_at_is_the_blessed_form(self):
        assert _rep002("np.add.at(out, indices, values)\n") == []
        assert _rep002("kernel.merge_ufunc.at(outbox, inverse, messages)\n") == []

    def test_out_keyword_on_plain_array_is_fine(self):
        assert _rep002("np.add(a, b, out=buffer)\n") == []

    def test_rule_is_scoped_to_engine(self):
        assert _rep002("out[indices] += v\n", path="src/repro/backends/csr.py") == []

    def test_rest_of_ooc_is_out_of_scope(self):
        # Only the stream scan folds messages; shard writing does not.
        assert _rep002("counts[target_idx] += 1\n", path="src/repro/ooc/shards.py") == []
        source = "kernel.merge_ufunc.at(acc, target_idx, messages)\n"
        assert _rep002(source, path=STREAM_PATH) == []

    def test_noqa_suppresses(self):
        assert _rep002("out[indices] += v  # repro: noqa[REP002]\n") == []
