"""Validation of the format tags a chain or store is written under."""

from __future__ import annotations


def require_format_tag(name: str, version: object, current: int, error: type[Exception]) -> int:
    """Refuse any value of a format tag but the one this build reads and writes.

    The version fields that survive their retired alternatives
    (``state_root_version``, ``sv_assembly_version``) are tags, not knobs:
    they exist so a chain or store written under another format is refused.
    """
    if version != current:
        raise error(
            f"{name} {version!r} is retired or unknown: "
            f"this build reads and writes only version {current}"
        )
    return current
