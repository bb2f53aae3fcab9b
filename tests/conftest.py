import json

import pytest


def write_docs(path):
    """Write the input documents shared by the CLI tests into ``path``."""
    side = 2.0 ** (-3 / 2)
    docs = {
        "ball.json": {
            "dimension": 2,
            "pieces": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}],
        },
        "ball1d.json": {
            "dimension": 1,
            "pieces": [{"kind": "ball", "center": [0.0], "radius": 1.0}],
        },
        "sigma2.json": {
            "dimension": 2,
            "pieces": [{"kind": "ball", "center": [0.0, 0.0], "radius": 2.0}],
        },
        "box8.json": {
            "dimension": 2,
            "pieces": [
                {
                    "kind": "box",
                    "lower": [-side / 2, -side / 2],
                    "upper": [side / 2, side / 2],
                }
            ],
        },
        "fbox.json": {
            "kind": "box",
            "lower": [-side / 2, -side / 2],
            "upper": [side / 2, side / 2],
        },
        "gauss1.json": {"kind": "gaussian", "a": 1.0, "dimension": 1},
        "gauss2.json": {"kind": "gaussian", "a": 1.0, "dimension": 2},
    }
    for name, doc in docs.items():
        (path / name).write_text(json.dumps(doc))


@pytest.fixture
def doc_dir(tmp_path):
    """Input documents shared by the CLI tests."""
    write_docs(tmp_path)
    return tmp_path
