"""The shared invalidation vocabulary: typed reasons only."""

import warnings

import pytest

from repro.errors import StoreIntegrityError
from repro.invalidation import InvalidationReason


class TestEnum:
    def test_values_are_strings(self):
        for member in InvalidationReason:
            assert isinstance(member, str)
            assert str(member) == member.value

    def test_vocabulary_is_pinned(self):
        assert sorted(m.value for m in InvalidationReason) == [
            "corrupt_columns",
            "delta_churn",
            "fingerprint_mismatch",
            "format_version",
            "key_mismatch",
            "malformed_manifest",
            "touch_absent",
        ]


class TestCoerceReason:
    """The enum constructor is the only coercion: members and value
    strings pass, free-form text is rejected instead of guessed at."""

    def test_enum_passes_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = InvalidationReason(InvalidationReason.DELTA_CHURN)
        assert got is InvalidationReason.DELTA_CHURN

    def test_canonical_string_passes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = InvalidationReason("corrupt_columns")
        assert got is InvalidationReason.CORRUPT_COLUMNS

    @pytest.mark.parametrize(
        "text",
        [
            "entry was sampled from a different graph (fingerprint...)",
            "entry key K does not match requested K'",
            "entry has format_version 0, this build reads 1",
            "nodes column fails its CRC-32 check",
            "indptr column has shape (3,), manifest says (5,)",
            "malformed manifest: KeyError",
            "no idea what happened",
        ],
    )
    def test_free_form_string_rejected(self, text):
        with pytest.raises(ValueError):
            InvalidationReason(text)


class TestStoreIntegrityErrorReason:
    def test_explicit_reason_kept(self):
        exc = StoreIntegrityError(
            "boom", reason=InvalidationReason.DELTA_CHURN
        )
        assert exc.reason is InvalidationReason.DELTA_CHURN

    def test_reason_is_required(self):
        with pytest.raises(TypeError):
            StoreIntegrityError("nodes column fails its CRC-32 check")

    def test_string_reason_coerced(self):
        exc = StoreIntegrityError("boom", reason="key_mismatch")
        assert exc.reason is InvalidationReason.KEY_MISMATCH
