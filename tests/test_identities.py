import hashlib
import inspect

import pytest

from beauville import identities
from beauville.cli import main

BUILDERS = {
    "lineardim3": ("lineardim3_matrices",),
    "u41": ("u41_matrices",),
    "u3": ("u3_matrices",),
    "sp42": ("sp42_matrices_odd", "sp42_matrices_even"),
}

# (suite, q, printed charpoly it compares with); sp42 has one per parity
PRINTED = [
    ("lineardim3", 5, "lineardim3_charpoly"),
    ("lineardim3", 16, "lineardim3_charpoly"),
    ("u41", 3, "u41_charpoly"),
    ("u41", 4, "u41_charpoly"),
    ("u3", 5, "u3_charpoly"),
    ("u3", 8, "u3_charpoly"),
    ("sp42", 9, "sp42_charpoly_odd"),
    ("sp42", 8, "sp42_charpoly_even"),
]


def test_draw_stream_is_pinned(monkeypatch):
    # every draw of the criterion 09 suites at 100 trials: both matrices and
    # the printed charpoly, hashed in draw order
    digest = hashlib.sha256()
    draws = []
    inner = identities._mismatches

    def hashed(trials, draw, form=None):
        def record():
            x, y, printed = draw()
            digest.update(repr((x.rows, y.rows, tuple(printed))).encode())
            draws.append(1)
            return x, y, printed
        return inner(trials, record, form)

    monkeypatch.setattr(identities, "_mismatches", hashed)
    assert identities.run_identity_suite("all", qmax=25, trials=100, seed=0) == 0
    assert len(draws) == 5000
    assert digest.hexdigest() == (
        "4316dc06e0599e4615fcb3e3bc53b63a60578b2ccd93519f29ed46adfd7571d4")


@pytest.mark.parametrize("lemma", sorted(BUILDERS))
def test_each_trial_calls_its_builder_once(monkeypatch, lemma):
    # the benchmark counts draws by wrapping these module attributes, and
    # reads a suite's trial count as the second positional argument
    suite = getattr(identities, lemma + "_suite")
    assert list(inspect.signature(suite).parameters) == ["q", "trials", "seed"]
    calls = []

    def counted(inner):
        def builder(*args):
            calls.append(1)
            return inner(*args)
        return builder

    for name in BUILDERS[lemma]:
        monkeypatch.setattr(identities, name, counted(getattr(identities, name)))
    for q in identities._fields_for(lemma, 9):
        del calls[:]
        assert suite(q, 13, q) == 0
        assert len(calls) == 13, (lemma, q)


@pytest.mark.parametrize("lemma,q,name", PRINTED)
def test_planted_charpoly_error_fails_every_draw(monkeypatch, lemma, q, name):
    suite = getattr(identities, lemma + "_suite")
    assert suite(q, 20, 1) == 0
    inner = getattr(identities, name)

    def planted(ctx, *codes):
        coeffs = list(inner(ctx, *codes))
        coeffs[1] = ctx.add_code(coeffs[1], 1)  # w^1 coefficient plus one
        return tuple(coeffs)

    monkeypatch.setattr(identities, name, planted)
    assert suite(q, 20, 1) == 20


@pytest.mark.parametrize("argv,message", [
    (["--lemma", "all", "--trials", "-3"], "trials must be at least 1, got -3"),
    (["--lemma", "all", "--trials", "0"], "trials must be at least 1, got 0"),
    (["--lemma", "sp42", "--qmax", "3"], "qmax must be in 4..25 for sp42, got 3"),
    (["--lemma", "all", "--qmax", "30"], "qmax must be in 4..25 for all, got 30"),
], ids=["negative-trials", "zero-trials", "sp42-below-range", "qmax-above-table"])
def test_cli_refuses_runs_that_check_nothing(capsys, argv, message):
    assert main(["identities"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_cli_runs_the_least_qmax_of_a_suite(capsys):
    assert main(["identities", "--lemma", "u3", "--qmax", "3", "--trials", "5"]) == 0
    assert capsys.readouterr().out == "u3 q=3: 5 draws, ok\n"
    with pytest.raises(ValueError):
        identities.run_identity_suite("u3", qmax=3, trials=0)
