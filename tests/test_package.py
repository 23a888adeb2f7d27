"""The package's export list: computed from the names imported in
``invkostka/__init__.py``, it must hold exactly the package's own public
objects."""

import invkostka


def test_all_lists_only_the_packages_own_public_names():
    assert invkostka.__all__ == sorted(set(invkostka.__all__))
    for name in invkostka.__all__:
        assert not name.startswith("_")
        assert getattr(invkostka, name).__module__.startswith("invkostka"), name
    for name in ("Partition", "SchurExpansion", "EPolynomial", "UniPolynomial",
                 "inv_kostka_duan", "inv_kostka_er", "inv_kostka_bruteforce", "verify_suite"):
        assert name in invkostka.__all__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from invkostka import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == invkostka.__all__
