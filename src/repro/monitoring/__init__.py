"""The monitoring component: exclusion policies decoupled from suspicion."""
