"""Campaign-scoped fixture modules (where RPR002 polices seeded streams)."""
