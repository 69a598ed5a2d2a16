"""Workload and fault-schedule generators, and the workload replay."""
