"""The simulator's wall prediction as it was computed before the
execution models owned it: a reference for ``predict_wall``.

``started`` stands for "the job has run at least once": the simulator
used to build a job's execution model at its first start, so a job that
had never run was predicted from its description alone.
"""

from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job
from repro.jobs.rigid_exec import RigidTimeline

EPS = 1e-6


def reference_wall(
    job: Job, execution, nodes: int, checkpoint: CheckpointModel, started: bool
) -> float:
    """Estimated wall-clock duration of *job* if started now on *nodes*."""
    if job.is_malleable:
        pad = (job.estimate - job.runtime) * job.size
        if started:
            work = execution.work_remaining + pad
        else:
            work = job.estimate_node_seconds
        return job.setup_time + work / nodes
    if job.is_ondemand:
        return job.setup_time + job.estimate
    # rigid: include checkpoint overheads in the prediction
    base = execution.completed_work if started else 0.0
    est_total = max(job.estimate, base + EPS)
    tl = RigidTimeline(
        start=0.0,
        setup=job.setup_time,
        base_work=base,
        total_work=est_total,
        interval=checkpoint.interval(job.size),
        cost=checkpoint.cost(job.size),
    )
    return tl.wall_for_work(est_total)

