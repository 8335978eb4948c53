import qdescent

# names removed from the public surface; each had no caller outside the tests
REMOVED = (
    "add", "mul", "norm", "is_unit", "ext_norm", "is_integral", "reduce_point",
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
