"""Influences, derivative identities, and threshold widths on [q]^n."""
