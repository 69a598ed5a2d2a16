"""Group membership on top of atomic broadcast, and group views."""
