"""Tests for format-tag validation (repro.utils.validation)."""

from __future__ import annotations

import pytest

from repro.exceptions import ChainValidationError, ConfigurationError
from repro.utils.validation import require_format_tag


class TestRequireFormatTag:
    def test_the_current_version_is_returned(self):
        assert require_format_tag("state_root_version", 2, 2, ConfigurationError) == 2

    @pytest.mark.parametrize("version", [1, 3, "2", None])
    def test_any_other_value_is_refused_with_the_callers_error(self, version):
        with pytest.raises(ChainValidationError) as refused:
            require_format_tag("sv_assembly_version", version, 2, ChainValidationError)
        assert str(refused.value) == (
            f"sv_assembly_version {version!r} is retired or unknown: "
            "this build reads and writes only version 2"
        )
