"""Grammar of the declared array contracts (:mod:`repro.utils.contracts`).

The runtime validator that consumes these contracts is exercised in
``tests/testing/test_contract_validator.py``.
"""

import pytest

from repro.utils.contracts import (
    ArraySpec,
    ContractError,
    ScalarSpec,
    parse_contract,
)


class TestContractGrammar:
    def test_full_contract_parses(self):
        contract = parse_contract(
            "(nq, d) f32, k: int -> (nq, k) f32, (nq, k) i64"
        )
        queries, k = contract.params
        assert isinstance(queries, ArraySpec)
        assert queries.dims == ("nq", "d")
        assert queries.dtype == "f32"
        assert queries.layout == "C"
        assert isinstance(k, ScalarSpec) and k.kind == "int"
        assert [r.dims for r in contract.returns] == [("nq", "k")] * 2
        assert [r.dtype for r in contract.returns] == ["f32", "i64"]

    def test_named_params_and_layout_opt_out(self):
        contract = parse_contract("ids: (n,) i64::any, k: int -> None")
        ids = contract.params[0]
        assert ids.name == "ids"
        assert ids.dims == ("n",)
        assert ids.layout == "any"
        assert contract.returns is None

    def test_leading_ellipsis_and_wildcard_dims(self):
        contract = parse_contract("(..., d) num::any, (n, _) any -> any")
        assert contract.params[0].dims == ("...", "d")
        assert contract.params[1].dims == ("n", "_")
        assert contract.returns is None  # opaque 'any' return

    def test_bare_ellipsis_is_any_ndarray(self):
        contract = parse_contract("(...) any::any -> (...) any")
        assert contract.params[0].dims == ("...",)
        assert contract.returns[0].dims == ("...",)

    def test_integer_dims(self):
        contract = parse_contract("(3, d) f32 -> None")
        assert contract.params[0].dims == (3, "d")

    @pytest.mark.parametrize(
        "bad",
        [
            "(nq d) f32 -> None",  # missing comma
            "(nq, d) f99 -> None",  # unknown dtype token
            "(nq, d) f32",  # no arrow
            "(a, ..., b) f32 -> None",  # ellipsis must lead
            "(n,) f32 -> ",  # empty returns
            "(n,) f32 -> (n,) f32, None",  # mixed array/opaque returns
            "(n,) f32 -> (n,) f32 junk",  # trailing junk on a return spec
            "(n,) f32::F -> None",  # unknown layout
        ],
    )
    def test_rejects_malformed_contracts(self, bad):
        with pytest.raises(ContractError):
            parse_contract(bad)

    def test_decorator_rejects_param_name_mismatch(self):
        from repro.utils.contracts import array_contract

        with pytest.raises(ContractError):

            @array_contract("wrong: (n,) f32 -> None")
            def f(ids):
                return None

    def test_decorator_rejects_too_many_entries(self):
        from repro.utils.contracts import array_contract

        with pytest.raises(ContractError):

            @array_contract("(n,) f32, (m,) f32 -> None")
            def f(only):
                return None
