"""PageDevice / ArrayPageDevice: file-backed storage, regions, adoption."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import PageIndexError, PageSizeError, StorageError
from repro.storage.device import ArrayPageDevice, PageDevice, default_storage_dir
from repro.storage.page import ArrayPage, Page


class TestPageDevice:
    def test_creates_sized_file(self, tmp_path):
        path = str(tmp_path / "dev.dat")
        PageDevice(path, 10, 128)
        assert os.path.getsize(path) == 1280

    def test_relative_names_go_to_storage_dir(self):
        d = PageDevice("rel.dat", 2, 64)
        assert d.path.startswith(default_storage_dir())
        assert os.path.exists(d.path)

    def test_write_read_round_trip(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 4, 8)
        d.write(Page(8, b"ABCDEFGH"), 2)
        assert d.read(2).to_bytes() == b"ABCDEFGH"
        assert d.read(0).to_bytes() == bytes(8)  # untouched pages zero

    def test_read_into_matches_paper_signature(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 4, 4)
        d.write(Page(4, b"wxyz"), 1)
        out = Page(4)
        d.read_into(out, 1)
        assert out.to_bytes() == b"wxyz"

    def test_page_index_bounds(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 4, 8)
        for bad in (-1, 4, 100):
            with pytest.raises(PageIndexError):
                d.read(bad)
            with pytest.raises(PageIndexError):
                d.write(Page(8), bad)

    def test_wrong_page_size_rejected(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 4, 8)
        with pytest.raises(PageSizeError):
            d.write(Page(4), 0)

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PageDevice(str(tmp_path / "x"), -1, 8)
        with pytest.raises(StorageError):
            PageDevice(str(tmp_path / "x"), 4, 0)
        with pytest.raises(StorageError):
            PageDevice(str(tmp_path / "x"), 4, 8, nominal_page_size=4)

    def test_io_stats(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 4, 8)
        d.write(Page(8), 0)
        d.read(0)
        d.read(1)
        assert d.io_stats() == {"reads": 2, "writes": 1}

    def test_data_survives_reopen(self, tmp_path):
        path = str(tmp_path / "d.dat")
        d1 = PageDevice(path, 4, 8)
        d1.write(Page(8, b"persist!"), 3)
        d1.close()
        d2 = PageDevice(path, 4, 8)
        assert d2.read(3).to_bytes() == b"persist!"

    def test_pickle_reopens_file(self, tmp_path):
        import pickle

        path = str(tmp_path / "d.dat")
        d = PageDevice(path, 4, 8)
        d.write(Page(8, b"snapshot"), 0)
        d2 = pickle.loads(pickle.dumps(d))
        assert d2.read(0).to_bytes() == b"snapshot"
        assert d2.disk_key == d.disk_key

    def test_destructor_closes_but_keeps_file(self, tmp_path):
        path = str(tmp_path / "d.dat")
        d = PageDevice(path, 2, 8)
        d.oopp_destructor()
        assert os.path.exists(path)

    def test_delete_backing_file(self, tmp_path):
        path = str(tmp_path / "d.dat")
        d = PageDevice(path, 2, 8)
        d.delete_backing_file()
        assert not os.path.exists(path)
        d.delete_backing_file()  # idempotent

    def test_nominal_page_size_tags_read_pages(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 2, 8,
                       nominal_page_size=1 << 20)
        page = d.read(0)
        assert page.nominal_nbytes == 1 << 20

    def test_read_pages_do_not_alias_each_other(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 2, 8)
        d.write(Page(8, b"ABCDEFGH"), 1)
        first = d.read(1)
        first.raw[:] = b"zzzzzzzz"
        assert d.read(1).to_bytes() == b"ABCDEFGH"

    def test_truncated_backing_file_is_short_read(self, tmp_path):
        path = str(tmp_path / "d.dat")
        d = ArrayPageDevice(path, 2, 2, 2, 2)
        d.write_page(ArrayPage(2, 2, 2, np.ones(8)), 1)
        os.truncate(path, d.PageSize + 10)
        assert d.read(0).to_bytes() == bytes(d.PageSize)
        with pytest.raises(PageSizeError, match="short"):
            d.read(1)
        with pytest.raises(PageSizeError, match="short"):
            d.read_page(1)
        with pytest.raises(PageSizeError, match="short"):
            d.read_into(Page(d.PageSize), 1)

    @pytest.mark.parametrize("nominal", [None, 1 << 20])
    def test_direct_reads_match_copying_reads(self, tmp_path, nominal):
        """``read_into`` and ``read_page`` fill the destination in place;
        bytes and nominal sizes are what read-then-copy produced."""
        d = ArrayPageDevice(str(tmp_path / "d.dat"), 2, 4, 4, 4,
                            nominal_page_size=nominal)
        values = np.arange(64.0)
        d.write_page(ArrayPage(4, 4, 4, values), 1)
        fetched = d.read(1)

        copied = ArrayPage(4, 4, 4)
        copied.update(fetched.to_bytes())
        if nominal is not None:
            copied.with_nominal_size(nominal)
        page = d.read_page(1)
        assert page.to_bytes() == copied.to_bytes()
        assert page.nominal_nbytes == copied.nominal_nbytes
        assert np.array_equal(page.array.ravel(), values)

        for target in (Page(d.PageSize), ArrayPage(4, 4, 4)):
            target.with_nominal_size(3 << 20)
            d.read_into(target, 1)
            assert target.to_bytes() == fetched.to_bytes()
            assert target.nominal_nbytes == 3 << 20  # the target's own

    def test_read_into_rejects_wrong_size(self, tmp_path):
        d = PageDevice(str(tmp_path / "d.dat"), 2, 8)
        with pytest.raises(PageSizeError):
            d.read_into(Page(4), 0)


class TestArrayPageDevice:
    def test_page_size_derived_from_block_shape(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 4, 2, 3, 4)
        assert d.PageSize == 2 * 3 * 4 * 8
        assert d.block_shape == (2, 3, 4)

    def test_write_read_page(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 4, 2, 2, 2)
        page = ArrayPage(2, 2, 2, np.arange(8.0))
        d.write_page(page, 1)
        got = d.read_page(1)
        assert np.array_equal(got.array, page.array)

    def test_write_wrong_shape_rejected(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 4, 2, 2, 2)
        with pytest.raises(PageSizeError):
            d.write_page(ArrayPage(2, 2, 3), 0)

    def test_remote_style_sum(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 4, 2, 2, 2)
        d.write_page(ArrayPage(2, 2, 2, np.arange(8.0)), 2)
        assert d.sum(2) == 28.0

    def test_reductions_over_regions(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 2, 4, 4, 4)
        data = np.arange(64.0).reshape(4, 4, 4)
        d.write_page(ArrayPage(4, 4, 4, data), 0)
        lo, hi = (1, 0, 2), (3, 2, 4)
        region = data[1:3, 0:2, 2:4]
        assert d.reduce_region(0, lo, hi, "sum") == region.sum()
        assert d.reduce_region(0, lo, hi, "min") == region.min()
        assert d.reduce_region(0, lo, hi, "max") == region.max()
        assert d.reduce_region(0, lo, hi, "sumsq") == (region ** 2).sum()
        with pytest.raises(StorageError):
            d.reduce_region(0, lo, hi, "median")

    def test_region_read_write(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 2, 4, 4, 4)
        patch = np.full((2, 2, 2), 9.0)
        d.write_region(0, (1, 1, 1), (3, 3, 3), patch)
        assert np.array_equal(d.read_region(0, (1, 1, 1), (3, 3, 3)), patch)
        assert d.read_page(0).sum() == 72.0

    def test_region_bounds_checked(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 2, 4, 4, 4)
        with pytest.raises(PageIndexError):
            d.read_region(0, (0, 0, 0), (5, 1, 1))
        with pytest.raises(PageSizeError):
            d.write_region(0, (0, 0, 0), (2, 2, 2), np.zeros((3, 3, 3)))

    def test_fill_region(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 2, 2, 2, 2)
        d.fill_region(1, (0, 0, 0), (2, 2, 2), 3.0)
        assert d.sum(1) == 24.0

    def test_page_local_linear_algebra(self, tmp_path):
        d = ArrayPageDevice(str(tmp_path / "a.dat"), 4, 2, 2, 2)
        d.write_page(ArrayPage(2, 2, 2, np.arange(8.0)), 0)
        d.copy_page(0, 1)
        assert d.sum(1) == 28.0
        d.scale_page(2.0, 1)
        assert d.sum(1) == 56.0
        d.axpy_page(-1.0, 0, 1)  # page1 -= page0
        assert d.sum(1) == 28.0
        assert d.dot_pages(0, 0) == float((np.arange(8.0) ** 2).sum())


class TestAdoption:
    def test_adopt_existing_page_device(self, tmp_path):
        raw = PageDevice(str(tmp_path / "shared.dat"), 4, 2 * 2 * 2 * 8)
        arr = ArrayPageDevice(raw, 2, 2, 2)
        arr.write_page(ArrayPage(2, 2, 2, np.ones(8)), 0)
        # the raw device sees the same bytes (co-existence, §5)
        assert raw.read(0).to_bytes() == np.ones(8).tobytes()
        assert arr.disk_key == raw.disk_key  # same simulated spindle

    def test_adopt_classmethod_alias(self, tmp_path):
        raw = PageDevice(str(tmp_path / "s2.dat"), 4, 64)
        arr = ArrayPageDevice.adopt(raw, 2, 2, 2)
        assert arr.NumberOfPages == 4

    def test_adopt_size_mismatch_rejected(self, tmp_path):
        raw = PageDevice(str(tmp_path / "s3.dat"), 4, 100)
        with pytest.raises(PageSizeError):
            ArrayPageDevice(raw, 2, 2, 2)

    def test_adopt_bad_shape_rejected(self, tmp_path):
        raw = PageDevice(str(tmp_path / "s4.dat"), 4, 64)
        with pytest.raises(StorageError):
            ArrayPageDevice(raw, 0, 2, 2)

    def test_string_form_still_validates_shape(self, tmp_path):
        with pytest.raises(StorageError):
            ArrayPageDevice(str(tmp_path / "s5.dat"), 4, 2, 0, 2)
