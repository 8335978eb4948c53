import subprocess
import sys
from pathlib import Path

import qdescent

SRC = Path(__file__).resolve().parents[1] / "src"

# names removed from the public surface; each had no caller outside the tests
REMOVED = (
    "add", "mul", "norm", "is_unit", "ext_norm", "is_integral", "reduce_point",
    "round_point", "random_quadratic",
)


def test_every_exported_name_resolves():
    assert len(set(qdescent.__all__)) == len(qdescent.__all__)
    for name in qdescent.__all__:
        assert getattr(qdescent, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in qdescent.__all__
        assert not hasattr(qdescent, name), name
    for owner, names in (
        *(
            (dom, ("box_elements", "denominator_elements", "offset_elements",
                   "norm_bounded_elements", "_norm_bounded_raws"))
            for dom in (qdescent.ZZ, qdescent.ZI, qdescent.GFpT(2))
        ),
        (qdescent.DomainElement, ("__pow__", "sort_key")),
        (qdescent.FractionPoint, ("coord",)),
        (qdescent.QuadraticPolynomial, ("eval_f2", "f2_at", "bilinear", "quad_coeff",
                                        "lin_coeff", "const_coeff")),
    ):
        for name in names:
            assert not hasattr(owner, name), f"{owner!r}.{name}"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site (which may import typing itself) out of the picture
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import qdescent.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
