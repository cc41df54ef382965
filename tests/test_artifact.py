"""The versioned repro.nclc/2 artifact: save/load round-trips, running
precompiled programs (no frontend re-invocation), and a malformed
artifact ending in ``ArtifactError`` however it is malformed."""

import json

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.apps.kvs_cache import KvsCluster
from repro.apps.workloads import random_arrays, zipf_keys
from repro.errors import ArtifactError
from repro.nclc import Compiler, WindowConfig
from repro.nclc.artifact import SCHEMA
from repro.nclc.driver import CompiledProgram

from tests.conftest import ALLREDUCE_DEFINES, ALLREDUCE_SRC, STAR_AND


def compile_allreduce():
    return Compiler().compile(
        ALLREDUCE_SRC,
        and_text=STAR_AND,
        windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
        defines=ALLREDUCE_DEFINES,
    )


class TestRoundTrip:
    def test_schema_header(self):
        payload = json.loads(compile_allreduce().to_json())
        assert payload["schema"] == SCHEMA == "repro.nclc/2"
        assert payload["nclc_version"].startswith("nclc-")
        assert payload["opt_level"] == 2
        assert payload["profile"] == "bmv2"

    def test_load_redump_is_byte_identical(self):
        text = compile_allreduce().to_json()
        assert CompiledProgram.from_json(text).to_json() == text

    def test_save_load_file(self, tmp_path):
        program = compile_allreduce()
        path = tmp_path / "allreduce.nclc.json"
        program.save(path)
        loaded = CompiledProgram.load(path)
        assert loaded.to_json() == program.to_json()

    def test_loaded_program_preserves_everything_the_runtime_reads(self):
        program = compile_allreduce()
        loaded = CompiledProgram.from_json(program.to_json())
        assert loaded.kernel_ids == program.kernel_ids
        assert loaded.label_ids == program.label_ids
        assert loaded.pairs == program.pairs == {"result": "allreduce"}
        assert {
            name: (fn.kind, fn.at_label, [(p.name, p.ty, p.ext) for p in fn.params])
            for name, fn in loaded.ref_module.functions.items()
        } == {
            name: (fn.kind, fn.at_label, [(p.name, p.ty, p.ext) for p in fn.params])
            for name, fn in program.ref_module.functions.items()
        }
        assert loaded.and_spec.render() == program.and_spec.render()
        assert loaded.switch_sources == program.switch_sources
        for name, layout in program.layouts.items():
            got = loaded.layouts[name]
            assert got.kernel_id == layout.kernel_id
            assert [(c.name, c.count, c.bits) for c in got.chunks] == [
                (c.name, c.count, c.bits) for c in layout.chunks
            ]
        for label, report in program.reports.items():
            assert loaded.reports[label].as_dict() == report.as_dict()

    def test_in_kernel_pairing_survives(self):
        loaded = CompiledProgram.from_json(compile_allreduce().to_json())
        assert loaded.pairs["result"] == "allreduce"
        assert loaded.paired_in_kernel("allreduce") == "result"

    def test_neither_shape_has_a_unit(self):
        program = compile_allreduce()
        loaded = CompiledProgram.from_json(program.to_json())
        assert not hasattr(program, "unit") and not hasattr(loaded, "unit")


class TestLoadErrors:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ArtifactError, match="schema"):
            CompiledProgram.from_json(json.dumps({"schema": "repro.nclc/99"}))

    def test_rejects_non_json(self):
        with pytest.raises(ArtifactError):
            CompiledProgram.from_json("not json{")

    def test_rejects_truncated_payload(self):
        payload = json.loads(compile_allreduce().to_json())
        del payload["ref_module"]
        with pytest.raises(ArtifactError):
            CompiledProgram.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text", ["[]", "3", "null", '"repro.nclc/2"'])
    def test_rejects_json_that_is_not_an_object(self, text):
        with pytest.raises(ArtifactError, match="not a JSON object"):
            CompiledProgram.from_json(text)

    @pytest.mark.parametrize("key", ["profile", "opt_level", "source"])
    def test_rejects_payload_missing_a_top_level_key(self, key):
        payload = json.loads(compile_allreduce().to_json())
        del payload[key]
        with pytest.raises(ArtifactError, match=f"malformed artifact: KeyError\\('{key}'"):
            CompiledProgram.from_json(json.dumps(payload))

    def test_rejects_an_opt_level_that_is_not_a_number(self):
        payload = json.loads(compile_allreduce().to_json())
        payload["opt_level"] = "x"
        with pytest.raises(ArtifactError, match="malformed artifact: ValueError"):
            CompiledProgram.from_json(json.dumps(payload))


class TestPrecompiledRun:
    """The acceptance bar: save -> load -> run == in-process compile."""

    def test_fig4_allreduce_identical_results(self, tmp_path):
        n_workers, data_len, window = 2, 64, 8
        arrays = random_arrays(n_workers, data_len, seed=7)

        direct = AllReduceJob(n_workers, data_len, window)
        res_direct, t_direct = direct.run_round(arrays)

        path = tmp_path / "fig4.nclc.json"
        AllReduceJob.compile_program(n_workers, data_len, window).save(path)
        precompiled = AllReduceJob(
            n_workers, data_len, window, program=CompiledProgram.load(path)
        )
        res_loaded, t_loaded = precompiled.run_round(arrays)

        assert res_loaded == res_direct
        assert t_loaded == t_direct
        assert res_loaded[0] == AllReduceJob.expected(arrays)

    def test_fig5_kvs_identical_results(self, tmp_path):
        n_keys, cache_size, val_words = 64, 8, 4
        keys = zipf_keys(80, n_keys, 0.9, seed=13)
        hot = sorted(set(keys))[:cache_size]

        def run(program=None):
            kvs = KvsCluster(
                n_clients=1,
                cache_size=cache_size,
                val_words=val_words,
                n_keys=n_keys,
                program=program,
            )
            kvs.install_hot_keys(hot)
            records = kvs.run_workload(0, keys, put_every=10)
            return kvs, records

        direct, rec_direct = run()

        path = tmp_path / "fig5.nclc.json"
        KvsCluster.compile_program(
            n_clients=1, cache_size=cache_size, val_words=val_words
        ).save(path)
        loaded, rec_loaded = run(program=CompiledProgram.load(path))

        assert [
            (r.op, r.key, r.latency, r.served_by_cache, r.value) for r in rec_loaded
        ] == [(r.op, r.key, r.latency, r.served_by_cache, r.value) for r in rec_direct]
        assert loaded.hit_ratio() == direct.hit_ratio()
        assert loaded.server_ops == direct.server_ops
