import re
from pathlib import Path

import conjlab
from conjlab import collatz, mobius, parity, rng, stochastic, zeta

MODULES = (collatz, parity, stochastic, mobius, zeta, rng)


def test_all_has_no_duplicates():
    assert len(conjlab.__all__) == len(set(conjlab.__all__))


def test_all_is_the_union_of_the_module_lists():
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(conjlab.__all__) == {"__version__"} | union


def test_every_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(conjlab, name) is getattr(m, name), f"{m.__name__}.{name}"


def test_constant_and_shared_helper_are_exported():
    assert "Z_CORRECTION_ORDER" in conjlab.__all__
    assert "substream" in conjlab.__all__
    assert conjlab.Z_CORRECTION_ORDER is zeta.Z_CORRECTION_ORDER
    assert conjlab.substream is rng.substream


def test_readme_tour_imports():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = re.findall(r"^from conjlab import .+$", readme, flags=re.M)
    assert lines
    for line in lines:
        names = [n.strip() for n in line.split("import", 1)[1].split(",")]
        assert set(names) <= set(conjlab.__all__), line
        exec(line, {})
