"""Garbled input files never crash the command line: characters of small
valid config, matrix, bundle, taming and model files are deleted or
replaced, and every run ends with exit 0, 1 or 3, exit 3 with an error
report.  The resolution line is never edited, so every grid stays at 7^4."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emduality.cli import run

RESOLUTION = "resolution = 7 7 7 7\n"
CONFIG = ("model = identity-tau\n"
          "extents = -0.4:0.4 -0.4:0.4 -0.4:0.4 -0.4:0.4\n"
          "metric = quadratic\n"
          "metric_coeff = 0 1 1 1 0.02\n"
          "phi = linear 0.1 1.2 | 0.01 0 0 0.02 0 0 0 0.01\n"
          "field = terms\n"
          "field_term = 0 0 1 0.3 0 0 1 0\n")
MATRIX = "1 0\n1 1\n"
BUNDLE = ("nv = 1\n"
          "generator = 0.8 -0.6 0.6 0.8\n"
          "generator = 2 0 0 0.5\n"
          "relation = 1 2 -1 -2\n")
TAMING = "0 1\n-1 0\n"
MODEL = ("name = garbled\n"
         "nv = 1\n"
         "chart = flat\n"
         "dim = 1\n"
         "N[1,1] = x1 + i*(2 + x1^2)\n")

# (position, replacement); a replacement of None deletes the character
EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6),
                           st.none() | st.sampled_from("0123456789 .-:|=#eqx\n")),
                 min_size=1, max_size=6)
SETTINGS = settings(deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def garble(text: str, edits) -> str:
    chars = list(text)
    for pos, char in edits:
        if not chars:
            break
        if char is None:
            del chars[pos % len(chars)]
        else:
            chars[pos % len(chars)] = char
    return "".join(chars)


def assert_contract(argv):
    code, text = run(argv)
    assert code in (0, 1, 3), text
    if code == 3:
        assert "error = " in text and "result = FAIL" in text, text


@settings(SETTINGS, max_examples=40)
@given(edits=EDITS)
def test_garbled_config(tmp_path, edits):
    path = tmp_path / "grid.cfg"
    path.write_text(garble(CONFIG, edits) + "\n" + RESOLUTION)
    assert_contract(["residuals", "--config", str(path)])


@settings(SETTINGS, max_examples=20)
@given(edits=EDITS)
def test_garbled_matrix(tmp_path, edits):
    cfg, a = tmp_path / "grid.cfg", tmp_path / "a.txt"
    cfg.write_text(CONFIG + RESOLUTION)
    a.write_text(garble(MATRIX, edits))
    assert_contract(["transport", "--config", str(cfg), "--f", "translate:1.0",
                     "--A", str(a)])


@settings(SETTINGS, max_examples=40)
@given(edits=EDITS)
def test_garbled_bundle(tmp_path, edits):
    path = tmp_path / "bundle.txt"
    path.write_text(garble(BUNDLE, edits))
    assert_contract(["centralizer", "--bundle", str(path)])
    assert_contract(["invariants", "--bundle", str(path), "--maxlen", "3"])


@settings(SETTINGS, max_examples=40)
@given(edits=EDITS)
def test_garbled_model(tmp_path, edits):
    path = tmp_path / "model.txt"
    path.write_text(garble(MODEL, edits))
    assert_contract(["stabilizer", "--model", str(path)])


@settings(SETTINGS, max_examples=20)
@given(edits=EDITS)
def test_garbled_taming(tmp_path, edits):
    bundle, j = tmp_path / "bundle.txt", tmp_path / "taming.txt"
    bundle.write_text("nv = 1\ngenerator = 0.8 -0.6 0.6 0.8\n")
    j.write_text(garble(TAMING, edits))
    assert_contract(["centralizer", "--bundle", str(bundle), "--taming", str(j)])
