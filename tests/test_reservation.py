"""Unit tests for the reservation book: holdings, loans, earmarks, plans."""

import pytest

from repro.core.reservation import PlannedPreemption, ReservationBook
from repro.util.errors import InvariantViolation


def make_res(book, od_id=100, need=50, notice=0.0, arrival=1800.0, collecting=True):
    return book.create(
        od_job_id=od_id,
        need=need,
        notice_time=notice,
        estimated_arrival=arrival,
        expiry_time=arrival + 600.0,
        collecting=collecting,
    )


class TestHoldings:
    def test_grab_free_caps_at_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        assert book.grab_free(res, 200) == 50
        assert res.held == 50
        assert res.deficit == 0
        assert book.total_held == 50

    def test_grab_free_limited_by_pool(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        assert book.grab_free(res, 30) == 30
        assert res.deficit == 20

    def test_duplicate_active_reservation_rejected(self):
        book = ReservationBook()
        make_res(book, od_id=7)
        with pytest.raises(InvariantViolation):
            make_res(book, od_id=7)

    def test_recreate_after_deactivate(self):
        book = ReservationBook()
        make_res(book, od_id=7)
        book.deactivate(7)
        make_res(book, od_id=7)  # allowed

    def test_deactivate_returns_held(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 50)
        assert book.deactivate(res.od_job_id) == 50
        assert book.total_held == 0
        assert book.get(res.od_job_id) is None

    def test_deactivate_unknown_is_noop(self):
        assert ReservationBook().deactivate(123) == 0


class TestLoans:
    def test_loan_and_return(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 50)
        book.loan_out(res, borrower_job_id=5, nodes=20)
        assert res.held == 30
        assert res.secured == 50  # loans still count as secured
        assert book.total_held == 30
        # borrower releases 25 nodes (20 borrowed + 5 own)
        book.on_job_release(5, 25)
        assert res.held == 50
        assert res.loans == {}

    def test_loan_exceeding_held_rejected(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 10)
        with pytest.raises(InvariantViolation):
            book.loan_out(res, 5, 20)

    def test_release_smaller_than_loan_is_a_bug(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 50)
        book.loan_out(res, 5, 20)
        with pytest.raises(InvariantViolation):
            book.on_job_release(5, 10)

    def test_loans_on(self):
        book = ReservationBook()
        r1 = make_res(book, od_id=1, need=50)
        r2 = make_res(book, od_id=2, need=50, notice=1.0)
        book.grab_free(r1, 30)
        book.grab_free(r2, 30)
        book.loan_out(r1, 5, 10)
        book.loan_out(r2, 5, 7)
        assert book.loans_on(5) == 17


class TestTargetedClaims:
    def test_claim_for_caps_at_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 20)
        claimed = book.on_job_release(99, 100, claim_for=res.od_job_id)
        assert claimed == 30
        assert res.held == 50

    def test_claim_for_inactive_reservation(self):
        book = ReservationBook()
        res = make_res(book)
        book.deactivate(res.od_job_id)
        assert book.on_job_release(99, 100, claim_for=res.od_job_id) == 0

    def test_loans_return_before_claim(self):
        book = ReservationBook()
        lender = make_res(book, od_id=1, need=30, notice=0.0)
        claimer = make_res(book, od_id=2, need=40, notice=1.0)
        book.grab_free(lender, 30)
        book.loan_out(lender, 5, 30)
        # job 5 releases 35 nodes; 30 go back to the lender's holding first
        claimed = book.on_job_release(5, 35, claim_for=2)
        assert lender.held == 30
        assert claimed == 5


class TestEarmarks:
    def test_earmark_honored_on_release(self):
        book = ReservationBook()
        res = make_res(book, need=50, collecting=False)
        book.add_earmark(res, job_id=5, pledge=40)
        book.on_job_release(5, 60)
        assert res.held == 40

    def test_earmark_capped_by_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50, collecting=False)
        book.grab_free(res, 30)
        book.add_earmark(res, 5, 40)
        book.on_job_release(5, 60)
        assert res.held == 50  # only 20 taken despite a 40 pledge

    def test_earmark_priority_by_notice_time(self):
        book = ReservationBook()
        late = make_res(book, od_id=2, need=50, notice=10.0, collecting=False)
        early = make_res(book, od_id=1, need=50, notice=0.0, collecting=False)
        book.add_earmark(late, 5, 50)
        book.add_earmark(early, 5, 50)
        book.on_job_release(5, 60)
        assert early.held == 50
        assert late.held == 10

    def test_pledged_on_counts_earmarks_and_plans(self):
        book = ReservationBook()
        res = make_res(book, collecting=False)
        book.add_earmark(res, 5, 10)
        book.add_planned(res, PlannedPreemption(victim_job_id=6, fire_time=100.0, pledge=20))
        assert book.pledged_on(5) == 10
        assert book.pledged_on(6) == 20
        book.cancel_plans(res)
        assert book.pledged_on(5) == 0
        assert book.pledged_on(6) == 0

    def test_duplicate_plan_rejected(self):
        book = ReservationBook()
        res = make_res(book)
        book.add_planned(res, PlannedPreemption(6, 100.0, 20))
        with pytest.raises(InvariantViolation):
            book.add_planned(res, PlannedPreemption(6, 200.0, 10))


class TestAbsorb:
    def test_collecting_reservations_absorb_in_notice_order(self):
        book = ReservationBook()
        r2 = make_res(book, od_id=2, need=40, notice=5.0)
        r1 = make_res(book, od_id=1, need=40, notice=1.0)
        absorbed = book.absorb_free(50)
        assert absorbed == 50
        assert r1.held == 40
        assert r2.held == 10

    def test_non_collecting_ignored(self):
        book = ReservationBook()
        res = make_res(book, collecting=False)
        assert book.absorb_free(50) == 0
        assert res.held == 0

    def test_absorb_zero_budget(self):
        book = ReservationBook()
        make_res(book)
        assert book.absorb_free(0) == 0


class TestValidateAndIntegral:
    def test_validate_catches_drift(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 20)
        book.validate(cluster_free=100)  # fine
        res.held += 1  # corrupt
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=100)

    def test_validate_catches_over_free(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 50)
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=10)

    def test_held_node_seconds_integral(self):
        book = ReservationBook()
        res = make_res(book)
        book.advance(10.0)
        book.grab_free(res, 20)
        book.advance(30.0)
        assert book.held_node_seconds == pytest.approx(20 * 20.0)


class TestOpenReservationsOnly:
    def test_deactivate_drops_the_reservation_and_its_index_entries(self):
        book = ReservationBook()
        gone = make_res(book, od_id=1, notice=0.0, collecting=False)
        kept = make_res(book, od_id=2, notice=5.0, collecting=False)
        book.add_earmark(gone, job_id=5, pledge=10)
        book.add_earmark(kept, job_id=5, pledge=20)
        book.add_earmark(gone, job_id=6, pledge=10)
        book.add_planned(gone, PlannedPreemption(7, 100.0, 5))
        book.add_planned(kept, PlannedPreemption(7, 100.0, 8))
        book.add_planned(gone, PlannedPreemption(8, 100.0, 5))
        book.deactivate(1)
        assert 1 not in book._by_od
        assert book._by_od == {2: kept}
        assert book._ordered == [kept]
        assert book._earmarks_on == {5: [(2, 20)]}
        assert book._planned_on == {7: [(2, 8)]}
        assert book.pledged_on(5) == 20
        assert book.pledged_on(7) == 8
        book.validate(cluster_free=0)

    def test_priority_order_kept_at_create(self):
        book = ReservationBook()
        r3 = make_res(book, od_id=3, notice=5.0)
        r1 = make_res(book, od_id=1, notice=5.0)
        r2 = make_res(book, od_id=2, notice=0.0)
        assert book.active_reservations() == [r2, r1, r3]
        book.deactivate(1)
        assert book.active_reservations() == [r2, r3]

    def test_validate_catches_priority_order_drift(self):
        book = ReservationBook()
        make_res(book, od_id=1, notice=0.0)
        make_res(book, od_id=2, notice=5.0)
        book.validate(cluster_free=0)
        book._ordered.reverse()
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=0)
        book._ordered.reverse()
        book._ordered.pop()
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=0)
