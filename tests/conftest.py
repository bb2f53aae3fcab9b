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
    # The pipeline's documents in d = 1 and 3: centred boxes of measure
    # 2^(-d-1), its cap, and a frequency ball about the origin.
    for d, radius in ((1, 3.0), (3, 2.0)):
        half = 2.0 ** (-(d + 1) / d) / 2
        box = {"kind": "box", "lower": [-half] * d, "upper": [half] * d}
        docs[f"fbox{d}d.json"] = box
        docs[f"box{d}d.json"] = {"dimension": d, "pieces": [box]}
        docs[f"sigma{d}d.json"] = {
            "dimension": d,
            "pieces": [{"kind": "ball", "center": [0.0] * d, "radius": radius}],
        }
    for name, doc in docs.items():
        (path / name).write_text(json.dumps(doc))


@pytest.fixture
def doc_dir(tmp_path):
    """Input documents shared by the CLI tests."""
    write_docs(tmp_path)
    return tmp_path
