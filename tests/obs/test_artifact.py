"""The schema-versioned run artifact: encode, validate, round-trip."""

import hashlib
import json
import os

import pytest

import repro
from repro.bench.harness import Sweep
from repro.obs.artifact import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    collect_provenance,
    encode_part,
    load_artifact,
    make_artifact,
    validate_artifact,
    write_artifact,
)


def _sample_sweep():
    sweep = Sweep("rate")
    sweep.add(1, cores=0.5)
    sweep.add(2, cores=1.0)
    return sweep


def _sample_artifact():
    return make_artifact({
        "figX": {
            "title": "Figure X",
            "wall_clock_s": 0.25,
            "parts": {
                "sweep_part": encode_part(_sample_sweep()),
                "table_part": encode_part({"speedup": 2.0}),
                "nested_part": encode_part({"cfg": {"m": 1.0}}),
            },
        },
    })


class TestPartCodec:
    def test_sweep_round_trip(self):
        part = encode_part(_sample_sweep())
        assert part["type"] == "sweep"
        assert json.loads(json.dumps(part)) == part
        assert [row["values"]["cores"] for row in part["rows"]] \
            == [0.5, 1.0]

    def test_flat_dict_becomes_table(self):
        part = encode_part({"a": 1.0, "b": 2.0})
        assert part == {"type": "table", "values": {"a": 1.0, "b": 2.0}}

    def test_dict_of_dicts_becomes_nested(self):
        source = {"cfg1": {"m": 1.0}, "cfg2": {"m": 2.0}}
        part = encode_part(source)
        assert part == {"type": "nested", "rows": source}

    def test_empty_dict_is_a_table(self):
        assert encode_part({}) == {"type": "table", "values": {}}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_part([1, 2, 3])


class TestProvenance:
    def test_core_fields_present(self):
        provenance = collect_provenance(argv=["fig1"])
        assert provenance["python"]
        assert provenance["platform"]
        assert provenance["argv"] == ["fig1"]
        assert provenance["workload_seed"] == 13
        assert "bluefield2" in provenance["hardware_profiles"]
        bf2 = provenance["hardware_profiles"]["bluefield2"]
        assert "compression" in bf2["accelerators"]

    def test_src_sha256_hashes_the_imported_package_sources(self):
        # recomputed by another walk: every .py under the package the
        # interpreter imported, by relative path, framed path-length-bytes
        root = os.path.dirname(os.path.abspath(repro.__file__))
        files = {}
        for directory, _dirs, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    relative = os.path.relpath(path, root)
                    files[relative.replace(os.sep, "/")] = path
        digest = hashlib.sha256()
        for relative in sorted(files):
            with open(files[relative], "rb") as handle:
                data = handle.read()
            digest.update(f"{relative}\0{len(data)}\0".encode())
            digest.update(data)
        provenance = collect_provenance(argv=[])
        assert provenance["src_sha256"] == digest.hexdigest()
        assert "git_sha" not in provenance
        assert "git_dirty" not in provenance


class TestArtifactDocument:
    def test_valid_document_has_no_errors(self):
        assert validate_artifact(_sample_artifact()) == []

    def test_schema_header(self):
        document = _sample_artifact()
        assert document["schema"] == SCHEMA_NAME
        assert document["schema_version"] == SCHEMA_VERSION

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "art.json"
        write_artifact(str(path), _sample_artifact())
        loaded = load_artifact(str(path))
        part = loaded["experiments"]["figX"]["parts"]["sweep_part"]
        assert [row["values"]["cores"] for row in part["rows"]] \
            == [0.5, 1.0]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_validate_flags_wrong_version(self):
        document = _sample_artifact()
        document["schema_version"] = 999
        assert any("schema_version" in error
                   for error in validate_artifact(document))

    def test_validate_flags_non_numeric_metric(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["table_part"][
            "values"]["speedup"] = "fast"
        assert any("speedup" in error
                   for error in validate_artifact(document))

    def test_validate_flags_malformed_sweep_row(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["sweep_part"][
            "rows"].append({"x": 3})
        assert any("sweep row" in error.lower() or
                   "malformed" in error.lower()
                   for error in validate_artifact(document))

    def test_validate_flags_unknown_part_type(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["table_part"][
            "type"] = "blob"
        assert any("blob" in error
                   for error in validate_artifact(document))

    def test_validate_flags_missing_provenance(self):
        document = _sample_artifact()
        del document["provenance"]
        assert any("provenance" in error
                   for error in validate_artifact(document))

    def test_not_an_object(self):
        assert validate_artifact([1, 2]) \
            == ["artifact is not a JSON object"]
