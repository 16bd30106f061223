import json
import math

import numpy as np
import pytest

from walklab import __version__, reporting
from walklab.reporting import Encoded, RecordJoin, canonical_json, report_envelope, write_csv, write_report


class TestCanonicalJson:
    def test_sorted_tight_and_newline_terminated(self):
        blob = canonical_json({"b": 1, "a": [1, 2]})
        assert blob == '{"a":[1,2],"b":1}\n'

    def test_key_order_does_not_matter(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})

    def test_numpy_scalars_become_builtins(self):
        blob = canonical_json(
            {
                "i": np.int64(3),
                "f": np.float64(0.5),
                "b": np.bool_(True),
                "v": np.array([1.0, 2.0]),
            }
        )
        assert json.loads(blob) == {"i": 3, "f": 0.5, "b": True, "v": [1.0, 2.0]}

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})
        with pytest.raises(ValueError):
            canonical_json({"x": math.inf})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})


VALUE = {"z": [1, 0.1, None, True, "}],{\"q\":"], "a": {"y": "text", "x": -2.5e-300, "w": np.int64(7)}}
OTHER = [[], {}, "", 1e300, -0.0]


class TestEncoded:
    @pytest.mark.parametrize("place", [
        lambda v, w: {"k": v, "b": 1, "m": w},  # dict values between others
        lambda v, w: [0, v, 2, w, v],  # list items
        lambda v, w: {"outer": [{"inner": w}, v], "a": [w]},  # nested
    ], ids=["dict-value", "list-item", "nested"])
    def test_splices_in_place(self, place):
        assert canonical_json(place(Encoded(VALUE), Encoded(OTHER))) == canonical_json(place(VALUE, OTHER))

    def test_equals_the_plain_encoding_of_the_parsed_fragment(self):
        fragment = Encoded(VALUE)
        assert canonical_json({"x": fragment}) == canonical_json({"x": json.loads(fragment.text)})
        assert fragment.text + "\n" == canonical_json(VALUE)

    def test_fragments_nest(self):
        inner = Encoded([1.5, {"b": 2, "a": 1}])
        outer = Encoded({"y": inner, "a": [inner, 3]})
        plain = [1.5, {"b": 2, "a": 1}]
        assert canonical_json([outer, inner]) == canonical_json([{"y": plain, "a": [plain, 3]}, plain])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fragment_rejected(self, bad):
        with pytest.raises(ValueError):
            Encoded({"x": [1.0, bad]})
        with pytest.raises(ValueError):
            RecordJoin([{"a": bad}], [0])
        with pytest.raises(ValueError):
            RecordJoin([{"a": 1}], [0])([{"b": bad}])

    @pytest.mark.parametrize("data", [
        reporting._SPLICE,
        'x"' + reporting._SPLICE,  # the marker's text after an escaped quote
        {reporting._SPLICE: 1},
        [1, {"deep": reporting._SPLICE}],
    ], ids=["value", "after-a-quote", "key", "nested"])
    def test_data_holding_the_splice_marker_raises(self, data):
        with pytest.raises(ValueError, match="splice marker"):
            canonical_json({"x": Encoded(1), "y": data})
        with pytest.raises(ValueError, match="splice marker"):
            canonical_json({"y": data})
        with pytest.raises(ValueError, match="splice marker"):
            Encoded([data])
        with pytest.raises(ValueError, match="splice marker"):
            RecordJoin([{"a": data}], [0])
        with pytest.raises(ValueError, match="splice marker"):
            RecordJoin([{"a": 1}], [0])([{"b": data}])


class TestRecordJoin:
    HEADS = [{"block": b, "eps_G": b / 3, "name": "},{" * b} for b in range(5)]
    TAIL_OF = [2, 0, 1, 1, 2]
    TAILS = [{"success": 0.0}, {"success": 1.0}, {"success": 0.1, "z": [np.float64(0.2)]}]

    def test_equals_the_merged_dicts(self):
        join = RecordJoin(self.HEADS, self.TAIL_OF)
        for tails in (self.TAILS, self.TAILS[::-1]):  # a join serves every call
            want = [{**head, **tails[t]} for head, t in zip(self.HEADS, self.TAIL_OF)]
            assert canonical_json({"r": join(tails)}) == canonical_json({"r": want})

    def test_one_record(self):
        assert canonical_json(RecordJoin([{"a": 1}], [0])([{"b": 2}])) == '[{"a":1,"b":2}]\n'

    @pytest.mark.parametrize("tail", [{"a": 2}, {"b": 2}, {"c": 1, "a": 2}])
    def test_tail_keys_sort_after_every_head_key(self, tail):
        join = RecordJoin([{"b": 1}, {"a": 0}], [0, 0])
        with pytest.raises(ValueError, match="sort after"):
            join([tail])


class TestEnvelope:
    def test_fields(self):
        env = report_envelope(
            "analyze", {"graph": "torus:5"}, seed=None, constants_hash=None, results={"ht": 1.0}
        )
        assert env["tool"] == "walklab"
        assert env["version"] == __version__
        assert env["spec"] == {"command": "analyze", "graph": "torus:5"}
        assert env["seed"] is None
        assert env["constants_hash"] is None
        assert env["results"] == {"ht": 1.0}

    def test_params_cannot_shadow_command(self):
        env = report_envelope("search", {"n": 8}, seed=3, constants_hash="ab", results={})
        assert env["spec"]["command"] == "search"
        assert env["spec"]["n"] == 8


class TestWriters:
    def test_write_report_is_canonical(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(p, {"z": 1, "a": 2})
        assert p.read_text() == '{"a":2,"z":1}\n'

    def test_write_report_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        record = {"spec": {"command": "build"}, "results": {"edges": 50}}
        write_report(a, record)
        write_report(b, record)
        assert a.read_bytes() == b.read_bytes()

    def test_write_csv_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [{"n": 4, "ht": 1.5}, {"n": 8, "ht": 2.5}], fields=("n", "ht"))
        lines = p.read_text().splitlines()
        assert lines[0] == "n,ht"
        assert lines[1] == "4,1.5"
        assert len(lines) == 3

    def test_write_csv_rejects_stray_fields(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", [{"n": 4, "oops": 1}], fields=("n",))
