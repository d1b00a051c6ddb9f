import json

import pytest

from starkdtc.output import write_csv, write_json


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    csv_path = write_csv(tmp_path / "table.csv", ["n", "c"], [(0, 1.0), (1, -0.5)])
    json_path = write_json(tmp_path / "table.json", {"a_pi": 0.5})
    before = {path: path.read_bytes() for path in (csv_path, json_path)}

    def rows():
        yield (0, 0.25)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_csv(csv_path, ["n", "c"], rows())
    # json.dump streams its chunks, so the object is reached after "a" is out
    with pytest.raises(TypeError):
        write_json(json_path, {"a": 1, "b": object()})

    for path, data in before.items():
        assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.json"]
    assert json.loads(json_path.read_text()) == {"a_pi": 0.5}
