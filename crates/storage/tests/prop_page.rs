//! Property test for the slotted-page reader on hostile page images.
//!
//! Pages are built with `PageBuilder`, then their bytes are mutated: the
//! header's slot count and tuple-area start, and slots' offsets and
//! lengths — into the header, into the slot array, onto another tuple,
//! past `PAGE_SIZE` — and the image is truncated or lengthened. On every
//! image the one-pass slot walk (`PageView::tuples_into`), a `get` per
//! slot and `PageView::iter` agree: the same tuples when the page is
//! sound, `Error::Corrupt` from all of them when it is not, and no panic.

use proptest::prelude::*;
use smooth_storage::{PageBuilder, PageView};
use smooth_types::{Error, Result, PAGE_SIZE};

/// Header bytes (`n_slots: u16`, `data_start: u16`) and bytes per slot
/// entry (`offset: u16`, `len: u16`) — the layout `page.rs` documents.
const HEADER_LEN: usize = 4;
const SLOT_LEN: usize = 4;

/// One byte-level mutation: what to overwrite, which slot, and a free
/// choice that picks the new value.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    kind: u8,
    slot: usize,
    choice: u64,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0u8..4, any::<usize>(), any::<u64>()).prop_map(|(kind, slot, choice)| Mutation {
        kind,
        slot,
        choice,
    })
}

fn read_u16(img: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([img[at], img[at + 1]])
}

fn write_u16(img: &mut [u8], at: usize, v: u16) {
    img[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// A hostile 16-bit value for a header or slot field of `img`: a page
/// boundary, the edges of the header, slot array and tuple area, another
/// slot's offset, or anything at all.
fn hostile(img: &[u8], choice: u64) -> u16 {
    let (n, start) = (read_u16(img, 0) as usize, read_u16(img, 2) as usize);
    let slots_end = HEADER_LEN + SLOT_LEN * n;
    // Another slot's entry, inside the page whatever the slot count says.
    let other = (choice >> 8) as usize % n.clamp(1, (PAGE_SIZE - HEADER_LEN) / SLOT_LEN);
    let other = HEADER_LEN + SLOT_LEN * other;
    let menu = [
        0,
        1,
        HEADER_LEN - 1,
        HEADER_LEN,
        slots_end.saturating_sub(1),
        slots_end,
        slots_end + 1,
        start.saturating_sub(1),
        start,
        start + 1,
        PAGE_SIZE - 1,
        PAGE_SIZE,
        PAGE_SIZE + 1,
        (PAGE_SIZE - HEADER_LEN) / SLOT_LEN,
        read_u16(img, other) as usize,
        u16::MAX as usize,
        (choice >> 16) as usize,
    ];
    menu[choice as usize % menu.len()] as u16
}

/// Apply `m` to the full-size image `img`.
fn mutate(img: &mut [u8], m: Mutation) {
    let slots = read_u16(img, 0) as usize;
    let entry = HEADER_LEN + SLOT_LEN * (m.slot % slots.max(1));
    let value = hostile(img, m.choice);
    match m.kind {
        0 => write_u16(img, 0, value),
        1 => write_u16(img, 2, value),
        // A slot count mutated earlier may put the entry past the page.
        2 if entry + SLOT_LEN <= PAGE_SIZE => write_u16(img, entry, value),
        3 if entry + SLOT_LEN <= PAGE_SIZE => write_u16(img, entry + 2, value),
        _ => {}
    }
}

/// Cut `img` short or lengthen it, for `resize` of 2 or 3.
fn resize(img: &mut Vec<u8>, resize: u8, choice: u64) {
    match resize {
        2 => img.truncate(choice as usize % PAGE_SIZE),
        3 => img.extend((0..1 + choice % 9).map(|b| b as u8)),
        _ => {}
    }
}

/// The page's tuples through one `get` per slot, stopping at the first
/// error as a reader of every slot would.
fn by_get(img: &[u8]) -> Result<Vec<&[u8]>> {
    let view = PageView::new(img)?;
    (0..view.slot_count()).map(|s| view.get(s)).collect()
}

fn by_walk(img: &[u8]) -> Result<Vec<&[u8]>> {
    let mut out = Vec::new();
    PageView::new(img)?.tuples_into(&mut out)?;
    Ok(out)
}

fn by_iter(img: &[u8]) -> Result<Vec<&[u8]>> {
    PageView::new(img)?.iter().collect()
}

proptest! {
    #[test]
    fn slot_walk_and_get_agree_on_hostile_pages(
        tuples in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..60),
        mutations in proptest::collection::vec(arb_mutation(), 1..5),
        (size, choice) in (0u8..8, any::<u64>()),
    ) {
        let mut b = PageBuilder::new();
        for t in &tuples {
            if b.insert(t).is_none() {
                break;
            }
        }
        let mut img = b.freeze().to_vec();
        prop_assert_eq!(by_walk(&img).unwrap(), by_get(&img).unwrap());
        for m in mutations {
            mutate(&mut img, m);
        }
        resize(&mut img, size, choice);
        let (walked, got, iterated) = (by_walk(&img), by_get(&img), by_iter(&img));
        for r in [&walked, &got, &iterated] {
            prop_assert!(r.is_ok() || matches!(r, Err(Error::Corrupt(_))), "{r:?}");
        }
        prop_assert_eq!(format!("{iterated:?}"), format!("{got:?}"));
        // The same tuples, or the same verdict on the same slot.
        prop_assert_eq!(format!("{walked:?}"), format!("{got:?}"));
    }
}
