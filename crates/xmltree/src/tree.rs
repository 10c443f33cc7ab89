//! The XML document model: a finite, rooted, ordered, labeled, unranked
//! tree (Section 4.1 of the paper), with attributes and text.
//!
//! Nodes live in an arena owned by the [`Document`]; [`NodeId`]s are dense
//! indices. The two string accessors the paper's formal development is
//! built on — the *ancestor string* `anc-str(v)` and *child string*
//! `ch-str(v)` — are provided directly on the document.

use std::fmt;

/// Index of a node in a document's arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// An attribute: name/value pair. Order of attributes is preserved as
/// written but is semantically irrelevant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribute {
    /// Attribute name (qualified as written, e.g. `xs:type` or `title`).
    pub name: String,
    /// Attribute value (entity references already resolved).
    pub value: String,
}

/// The payload of a node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An element with a name and attributes.
    Element {
        /// Element name (qualified as written).
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// A text node (character data; CDATA sections are merged in).
    Text(String),
}

#[derive(Clone, Debug)]
struct NodeData {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// `name_ids` marker for text nodes.
const TEXT_ID: u32 = u32::MAX;

/// Interns element names at construction time so consumers (validators in
/// particular) can resolve a node's name with one dense-array load instead
/// of hashing a string per node. Open addressing over FNV-1a, ≤ half full.
#[derive(Clone, Debug, Default)]
struct NameIndex {
    names: Vec<String>,
    slots: Vec<u32>,
}

impl NameIndex {
    /// One hash + one probe chain per call: a miss remembers the empty
    /// slot the probe stopped at and inserts there directly (the probe
    /// is not repeated, unlike the old lookup-then-insert scheme).
    fn intern(&mut self, name: &str) -> u32 {
        let mut slot = 0usize;
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            slot = fnv1a(name) as usize & mask;
            loop {
                match self.slots[slot] {
                    0 => break,
                    s => {
                        if self.names[(s - 1) as usize] == name {
                            return s - 1;
                        }
                    }
                }
                slot = (slot + 1) & mask;
            }
        }
        let id = u32::try_from(self.names.len()).expect("name-id overflow");
        assert_ne!(id, TEXT_ID, "name-id overflow");
        self.names.push(name.to_owned());
        if (self.names.len() + 1) * 2 > self.slots.len() {
            let cap = (self.names.len() * 4).next_power_of_two().max(8);
            self.slots = vec![0; cap];
            for i in 0..self.names.len() as u32 {
                self.insert(i);
            }
        } else {
            self.slots[slot] = id + 1;
        }
        id
    }

    fn insert(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = fnv1a(&self.names[id as usize]) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id + 1;
    }
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One entry in a [`Document`]'s [`EditLog`]: the smallest unit of
/// damage an incremental consumer must repair.
///
/// The variants are deliberately coarse — a consumer that re-examines
/// the subtree under every `Dirty` node, discards state for every
/// `Detached` node, and restarts from scratch on `RootReplaced` sees
/// every effect of the mutation API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edit {
    /// The element's label, attributes, child list, or a text child
    /// changed: its subtree must be re-examined.
    Dirty(NodeId),
    /// The subtree rooted here was disconnected from the tree (by
    /// [`Document::remove_child`] or [`Document::replace_subtree`]);
    /// any per-node state for it is stale and must be dropped.
    Detached(NodeId),
    /// The root element itself was replaced: nothing survives.
    RootReplaced,
}

/// An append-only log of [`Edit`]s, each stamped with the document
/// generation the mutation produced. Enabled with
/// [`Document::enable_edit_log`]; the parser never enables it, so the
/// construction hot path pays only the generation increment.
#[derive(Clone, Debug, Default)]
pub struct EditLog {
    /// `(generation, edit)` pairs in the order applied. Generations are
    /// non-decreasing (one mutation may emit several entries).
    entries: Vec<(u64, Edit)>,
}

impl EditLog {
    /// Every logged edit, oldest first, with its generation stamp.
    pub fn entries(&self) -> &[(u64, Edit)] {
        &self.entries
    }

    /// The edits applied strictly after `generation` — the delta a
    /// consumer whose state was captured at `generation` must replay.
    pub fn since(&self, generation: u64) -> &[(u64, Edit)] {
        let start = self.entries.partition_point(|&(g, _)| g <= generation);
        &self.entries[start..]
    }

    /// Whether no edits have been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An XML document: an arena of nodes with a single element root.
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<NodeData>,
    root: NodeId,
    /// Per node: interned name id (element) or [`TEXT_ID`] (text).
    name_ids: Vec<u32>,
    name_index: NameIndex,
    /// Bumped by every mutation; lets consumers detect staleness.
    generation: u64,
    /// Mutation log, present once [`Document::enable_edit_log`] ran.
    edit_log: Option<EditLog>,
}

impl Document {
    /// Creates a document whose root element has the given name.
    pub fn new(root_name: &str) -> Self {
        let mut name_index = NameIndex::default();
        let root_id = name_index.intern(root_name);
        Document {
            nodes: vec![NodeData {
                kind: NodeKind::Element {
                    name: root_name.to_owned(),
                    attributes: Vec::new(),
                },
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
            name_ids: vec![root_id],
            name_index,
            generation: 0,
            edit_log: None,
        }
    }

    /// The document's generation: incremented by every mutation.
    /// Consumers snapshot it to tell whether their derived state is
    /// stale and which [`EditLog`] suffix to replay.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Starts recording mutations into an [`EditLog`]. Idempotent; a
    /// freshly parsed or built document does not log (construction is
    /// not an edit).
    pub fn enable_edit_log(&mut self) {
        if self.edit_log.is_none() {
            self.edit_log = Some(EditLog::default());
        }
    }

    /// The edit log, if [`Document::enable_edit_log`] was called.
    pub fn edit_log(&self) -> Option<&EditLog> {
        self.edit_log.as_ref()
    }

    /// Drops all logged entries (logging stays enabled). Called after a
    /// consumer has replayed the log against its state.
    pub fn clear_edit_log(&mut self) {
        if let Some(log) = &mut self.edit_log {
            log.entries.clear();
        }
    }

    /// Stamps one mutation: bumps the generation and, when logging is
    /// on, appends the edits under that single new generation.
    fn log_edits(&mut self, edits: &[Edit]) {
        self.generation += 1;
        if let Some(log) = &mut self.edit_log {
            let generation = self.generation;
            log.entries.extend(edits.iter().map(|&e| (generation, e)));
        }
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements + text).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document has only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Appends a child element to `parent`, returning the new node.
    pub fn add_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let name_id = self.name_index.intern(name);
        self.push_element(parent, name, name_id)
    }

    /// [`Document::add_element`] with a caller-supplied dense name id
    /// hint. When `hint` is the id this document's interner has already
    /// assigned to `name` — e.g. a [`crate::stream::NameId`] from the
    /// streaming reader, whose first-occurrence order matches this
    /// interner's by construction — the hash lookup is skipped entirely.
    /// A hint that does not match falls back to a normal intern.
    pub fn add_element_hinted(&mut self, parent: NodeId, name: &str, hint: usize) -> NodeId {
        let name_id = match self.name_index.names.get(hint) {
            Some(known) if known == name => hint as u32,
            _ => self.name_index.intern(name),
        };
        self.push_element(parent, name, name_id)
    }

    fn push_element(&mut self, parent: NodeId, name: &str, name_id: u32) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            kind: NodeKind::Element {
                name: name.to_owned(),
                attributes: Vec::new(),
            },
            parent: Some(parent),
            children: Vec::new(),
        });
        self.name_ids.push(name_id);
        self.nodes[parent.0].children.push(id);
        self.log_edits(&[Edit::Dirty(parent)]);
        id
    }

    /// Appends a text child to `parent`, returning the new node.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            kind: NodeKind::Text(text.to_owned()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.name_ids.push(TEXT_ID);
        self.nodes[parent.0].children.push(id);
        self.log_edits(&[Edit::Dirty(parent)]);
        id
    }

    /// Sets (or replaces) an attribute on an element node.
    ///
    /// Panics if `node` is a text node.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: &str) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(a) = attributes.iter_mut().find(|a| a.name == name) {
                    a.value = value.to_owned();
                } else {
                    attributes.push(Attribute {
                        name: name.to_owned(),
                        value: value.to_owned(),
                    });
                }
            }
            NodeKind::Text(_) => panic!("cannot set attribute on a text node"),
        }
        self.log_edits(&[Edit::Dirty(node)]);
    }

    /// Removes an attribute from an element node (no-op if absent).
    ///
    /// Panics if `node` is a text node.
    pub fn remove_attribute(&mut self, node: NodeId, name: &str) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Element { attributes, .. } => {
                attributes.retain(|a| a.name != name);
            }
            NodeKind::Text(_) => panic!("cannot remove attribute from a text node"),
        }
        self.log_edits(&[Edit::Dirty(node)]);
    }

    /// Replaces the content of a text node.
    ///
    /// Panics if `node` is not a text node.
    pub fn set_text(&mut self, node: NodeId, text: &str) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Text(t) => *t = text.to_owned(),
            NodeKind::Element { .. } => panic!("set_text on an element node"),
        }
        // Text verdicts live on the enclosing element, so the damage is
        // the parent's, not the text node's.
        let parent = self.nodes[node.0].parent.expect("text node has a parent");
        self.log_edits(&[Edit::Dirty(parent)]);
    }

    /// Inserts a new element named `name` as the `index`-th child of
    /// `parent` (panics if `index > children.len()`), returning it.
    pub fn insert_child(&mut self, parent: NodeId, index: usize, name: &str) -> NodeId {
        let name_id = self.name_index.intern(name);
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            kind: NodeKind::Element {
                name: name.to_owned(),
                attributes: Vec::new(),
            },
            parent: Some(parent),
            children: Vec::new(),
        });
        self.name_ids.push(name_id);
        self.nodes[parent.0].children.insert(index, id);
        self.log_edits(&[Edit::Dirty(parent)]);
        id
    }

    /// Inserts a new text node as the `index`-th child of `parent`
    /// (panics if `index > children.len()`), returning it.
    pub fn insert_text(&mut self, parent: NodeId, index: usize, text: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            kind: NodeKind::Text(text.to_owned()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.name_ids.push(TEXT_ID);
        self.nodes[parent.0].children.insert(index, id);
        self.log_edits(&[Edit::Dirty(parent)]);
        id
    }

    /// Detaches `child` (and its whole subtree) from `parent`.
    ///
    /// The nodes stay in the arena — ids are never reused — but are no
    /// longer reachable from the root; traversals skip them. Panics if
    /// `child` is not a child of `parent`.
    pub fn remove_child(&mut self, parent: NodeId, child: NodeId) {
        let children = &mut self.nodes[parent.0].children;
        let pos = children
            .iter()
            .position(|&c| c == child)
            .expect("remove_child: not a child of parent");
        children.remove(pos);
        self.nodes[child.0].parent = None;
        self.log_edits(&[Edit::Dirty(parent), Edit::Detached(child)]);
    }

    /// Replaces the subtree rooted at `target` with a deep copy of the
    /// subtree rooted at `src_node` in `src`, returning the copy's root
    /// (a fresh node in this document). The old subtree is detached, as
    /// in [`Document::remove_child`]. Replacing the document root swaps
    /// the root pointer itself and logs [`Edit::RootReplaced`].
    ///
    /// Panics if `src_node` is not an element.
    pub fn replace_subtree(&mut self, target: NodeId, src: &Document, src_node: NodeId) -> NodeId {
        assert!(
            src.is_element(src_node),
            "replace_subtree: src not an element"
        );
        let parent = self.nodes[target.0].parent;
        let new_root = self.deep_copy(parent, src, src_node);
        match parent {
            Some(p) => {
                let children = &mut self.nodes[p.0].children;
                let pos = children
                    .iter()
                    .position(|&c| c == target)
                    .expect("replace_subtree: target detached");
                // deep_copy appended the copy at the end; move it into
                // the old slot.
                let appended = children.pop().expect("copy was appended");
                debug_assert_eq!(appended, new_root);
                children[pos] = new_root;
                self.nodes[target.0].parent = None;
                self.log_edits(&[Edit::Dirty(p), Edit::Detached(target)]);
            }
            None => {
                assert_eq!(target, self.root, "replace_subtree: target is detached");
                self.root = new_root;
                self.log_edits(&[Edit::RootReplaced, Edit::Detached(target)]);
            }
        }
        new_root
    }

    /// Appends a structural copy of `src`'s subtree at `src_node` under
    /// `parent` (or detached when `parent` is `None`), interning names
    /// into this document. Children recurse in order, so every copied
    /// parent has a smaller id than its children.
    fn deep_copy(&mut self, parent: Option<NodeId>, src: &Document, src_node: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len());
        match src.kind(src_node) {
            NodeKind::Element { name, attributes } => {
                let name_id = self.name_index.intern(name);
                self.nodes.push(NodeData {
                    kind: NodeKind::Element {
                        name: name.clone(),
                        attributes: attributes.clone(),
                    },
                    parent,
                    children: Vec::new(),
                });
                self.name_ids.push(name_id);
            }
            NodeKind::Text(t) => {
                self.nodes.push(NodeData {
                    kind: NodeKind::Text(t.clone()),
                    parent,
                    children: Vec::new(),
                });
                self.name_ids.push(TEXT_ID);
            }
        }
        if let Some(p) = parent {
            self.nodes[p.0].children.push(id);
        }
        for &c in src.children(src_node) {
            self.deep_copy(Some(id), src, c);
        }
        id
    }

    /// The node's payload.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.0].kind
    }

    /// The element name of `node`, or `None` for text nodes.
    pub fn name(&self, node: NodeId) -> Option<&str> {
        match &self.nodes[node.0].kind {
            NodeKind::Element { name, .. } => Some(name),
            NodeKind::Text(_) => None,
        }
    }

    /// The interned name id of an element node (`None` for text nodes).
    ///
    /// Ids are dense indices into [`Document::distinct_names`], assigned
    /// in first-occurrence order. Equal names share an id, so validators
    /// can resolve each distinct name against a schema alphabet once per
    /// document and then map nodes to symbols with a single array load —
    /// this is the per-child fast path of the BonXai validator.
    #[inline]
    pub fn name_id(&self, node: NodeId) -> Option<u32> {
        let id = self.name_ids[node.0];
        (id != TEXT_ID).then_some(id)
    }

    /// The distinct element names of this document, indexed by
    /// [`Document::name_id`].
    pub fn distinct_names(&self) -> &[String] {
        &self.name_index.names
    }

    /// The local part of the element name (after any `prefix:`).
    pub fn local_name(&self, node: NodeId) -> Option<&str> {
        self.name(node)
            .map(|n| n.rsplit_once(':').map_or(n, |(_, local)| local))
    }

    /// The text content of a text node, or `None` for elements.
    pub fn text(&self, node: NodeId) -> Option<&str> {
        match &self.nodes[node.0].kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element { .. } => None,
        }
    }

    /// Whether the node is an element.
    pub fn is_element(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.0].kind, NodeKind::Element { .. })
    }

    /// The node's parent.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0].parent
    }

    /// The node's children (elements and text), in document order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.0].children
    }

    /// The node's element children only, in document order.
    pub fn element_children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node)
            .iter()
            .copied()
            .filter(move |&c| self.is_element(c))
    }

    /// The attributes of an element (empty for text nodes).
    pub fn attributes(&self, node: NodeId) -> &[Attribute] {
        match &self.nodes[node.0].kind {
            NodeKind::Element { attributes, .. } => attributes,
            NodeKind::Text(_) => &[],
        }
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attributes(node)
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// The paper's `anc-str(v)`: the element names on the path from the
    /// root down to (and including) `v`.
    ///
    /// ```
    /// use xmltree::Document;
    /// let mut d = Document::new("document");
    /// let t = d.add_element(d.root(), "template");
    /// let s = d.add_element(t, "section");
    /// assert_eq!(d.anc_str(s), vec!["document", "template", "section"]);
    /// ```
    pub fn anc_str(&self, node: NodeId) -> Vec<&str> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            if let Some(name) = self.name(n) {
                path.push(name);
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
    }

    /// The paper's `ch-str(v)`: the names of the element children of `v`,
    /// left to right. (Text children are not part of the child string; see
    /// the validators for how mixed content is treated.)
    pub fn ch_str(&self, node: NodeId) -> Vec<&str> {
        self.element_children(node)
            .map(|c| self.name(c).expect("element child has a name"))
            .collect()
    }

    /// Whether `node` has any text child with a character outside
    /// [`crate::is_xml_whitespace`].
    pub fn has_significant_text(&self, node: NodeId) -> bool {
        self.children(node).iter().any(|&c| {
            self.text(c)
                .is_some_and(|t| !t.chars().all(crate::is_xml_whitespace))
        })
    }

    /// All element nodes in depth-first (document) order, starting at the
    /// root. Allocates; prefer [`Document::iter_elements`] unless the
    /// ids must outlive a borrow of the document.
    pub fn elements(&self) -> Vec<NodeId> {
        self.iter_elements().collect()
    }

    /// All element nodes in depth-first (document) order, starting at
    /// the root, without materializing a `Vec`.
    pub fn iter_elements(&self) -> ElementsIter<'_> {
        ElementsIter {
            doc: self,
            stack: vec![self.root],
        }
    }

    /// Number of element nodes reachable from the root.
    pub fn element_count(&self) -> usize {
        self.iter_elements().count()
    }

    /// Maximum depth of the tree (root = 1).
    pub fn depth(&self) -> usize {
        fn go(d: &Document, n: NodeId) -> usize {
            1 + d.element_children(n).map(|c| go(d, c)).max().unwrap_or(0)
        }
        go(self, self.root)
    }
}

/// Depth-first pre-order traversal of a document's element nodes.
/// Created by [`Document::iter_elements`].
#[derive(Clone, Debug)]
pub struct ElementsIter<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for ElementsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while let Some(n) = self.stack.pop() {
            if self.doc.is_element(n) {
                for &c in self.doc.children(n).iter().rev() {
                    self.stack.push(c);
                }
                return Some(n);
            }
        }
        None
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::serializer::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId) {
        let mut d = Document::new("document");
        let template = d.add_element(d.root(), "template");
        let content = d.add_element(d.root(), "content");
        let s1 = d.add_element(template, "section");
        d.set_attribute(s1, "title", "Intro");
        d.add_text(content, "hello");
        (d, template, s1)
    }

    #[test]
    fn structure_accessors() {
        let (d, template, s1) = sample();
        assert_eq!(d.name(d.root()), Some("document"));
        assert_eq!(d.parent(s1), Some(template));
        assert_eq!(d.parent(d.root()), None);
        assert_eq!(d.children(d.root()).len(), 2);
        assert_eq!(d.attribute(s1, "title"), Some("Intro"));
        assert_eq!(d.attribute(s1, "missing"), None);
    }

    #[test]
    fn anc_and_ch_str() {
        let (d, template, s1) = sample();
        assert_eq!(d.anc_str(s1), vec!["document", "template", "section"]);
        assert_eq!(d.ch_str(d.root()), vec!["template", "content"]);
        assert_eq!(d.ch_str(template), vec!["section"]);
        assert!(d.ch_str(s1).is_empty());
    }

    #[test]
    fn text_handling() {
        let (d, _, _) = sample();
        let content = d.children(d.root())[1];
        assert!(d.has_significant_text(content));
        assert!(!d.has_significant_text(d.root()));
        assert!(d.ch_str(content).is_empty());
    }

    #[test]
    fn set_attribute_replaces() {
        let (mut d, _, s1) = sample();
        d.set_attribute(s1, "title", "New");
        assert_eq!(d.attribute(s1, "title"), Some("New"));
        assert_eq!(d.attributes(s1).len(), 1);
    }

    #[test]
    fn elements_in_document_order() {
        let (d, _, _) = sample();
        let names: Vec<_> = d
            .elements()
            .into_iter()
            .map(|n| d.name(n).unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["document", "template", "section", "content"]);
    }

    #[test]
    fn name_ids_are_dense_and_shared() {
        let (d, template, s1) = sample();
        assert_eq!(d.name_id(d.root()), Some(0));
        assert_eq!(d.name_id(template), Some(1));
        assert_eq!(d.name_id(s1), Some(3)); // after "content"
        let text = d.children(d.children(d.root())[1])[0];
        assert_eq!(d.name_id(text), None);
        assert_eq!(
            d.distinct_names(),
            &["document", "template", "content", "section"]
        );
        // same name ⇒ same id
        let mut d2 = Document::new("a");
        let x = d2.add_element(d2.root(), "b");
        let y = d2.add_element(x, "b");
        assert_eq!(d2.name_id(x), d2.name_id(y));
    }

    #[test]
    fn local_name_strips_prefix() {
        let mut d = Document::new("xs:schema");
        assert_eq!(d.local_name(d.root()), Some("schema"));
        let e = d.add_element(d.root(), "element");
        assert_eq!(d.local_name(e), Some("element"));
    }

    #[test]
    fn depth_computation() {
        let (d, _, _) = sample();
        assert_eq!(d.depth(), 3);
        assert_eq!(Document::new("r").depth(), 1);
    }

    #[test]
    fn iter_elements_matches_elements() {
        let (d, _, _) = sample();
        let iterated: Vec<_> = d.iter_elements().collect();
        assert_eq!(iterated, d.elements());
        assert_eq!(d.element_count(), 4);
    }

    #[test]
    fn generation_counts_mutations() {
        let (mut d, _, s1) = sample();
        let g = d.generation();
        d.set_attribute(s1, "title", "New");
        assert_eq!(d.generation(), g + 1);
        d.add_element(d.root(), "extra");
        assert_eq!(d.generation(), g + 2);
    }

    #[test]
    fn edit_log_records_mutations() {
        let (mut d, template, s1) = sample();
        assert!(d.edit_log().is_none());
        d.enable_edit_log();
        let g0 = d.generation();
        d.set_attribute(s1, "title", "New");
        let t = d.insert_child(d.root(), 1, "middle");
        d.remove_child(template, s1);
        let edits: Vec<_> = d.edit_log().unwrap().since(g0).to_vec();
        assert_eq!(
            edits.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec![
                Edit::Dirty(s1),
                Edit::Dirty(d.root()),
                Edit::Dirty(template),
                Edit::Detached(s1),
            ]
        );
        // `since` slices by generation stamp.
        let (g_insert, _) = edits[1];
        assert_eq!(d.edit_log().unwrap().since(g_insert).len(), 2);
        d.clear_edit_log();
        assert!(d.edit_log().unwrap().is_empty());
        assert_eq!(d.name(t), Some("middle"));
    }

    #[test]
    fn insert_child_orders_siblings() {
        let mut d = Document::new("r");
        d.add_element(d.root(), "a");
        d.add_element(d.root(), "c");
        d.insert_child(d.root(), 1, "b");
        assert_eq!(d.ch_str(d.root()), vec!["a", "b", "c"]);
    }

    #[test]
    fn remove_child_detaches_subtree() {
        let (mut d, template, s1) = sample();
        d.remove_child(d.root(), template);
        assert_eq!(d.parent(template), None);
        assert_eq!(d.ch_str(d.root()), vec!["content"]);
        // Detached nodes stay addressable but unreachable.
        assert_eq!(d.name(s1), Some("section"));
        assert!(!d.elements().contains(&template));
        assert_eq!(d.element_count(), 2);
    }

    #[test]
    fn set_text_and_insert_text() {
        let (mut d, _, _) = sample();
        let content = d.children(d.root())[1];
        let text = d.children(content)[0];
        d.set_text(text, "  ");
        assert!(!d.has_significant_text(content));
        d.insert_text(content, 0, "front");
        assert_eq!(d.text(d.children(content)[0]), Some("front"));
    }

    #[test]
    fn replace_subtree_splices_copy() {
        let (mut d, template, s1) = sample();
        let mut src = Document::new("section");
        src.set_attribute(src.root(), "title", "Replacement");
        src.add_text(src.root(), "body");
        let fresh = d.replace_subtree(s1, &src, src.root());
        assert_eq!(d.parent(fresh), Some(template));
        assert_eq!(d.ch_str(template), vec!["section"]);
        assert_eq!(d.attribute(fresh, "title"), Some("Replacement"));
        assert_eq!(d.parent(s1), None);
        assert!(fresh.0 > template.0, "copies append after their parent");
    }

    #[test]
    fn replace_subtree_at_root() {
        let (mut d, _, _) = sample();
        d.enable_edit_log();
        let g0 = d.generation();
        let src = Document::new("fresh");
        let new_root = d.replace_subtree(d.root(), &src, src.root());
        assert_eq!(d.root(), new_root);
        assert_eq!(d.name(d.root()), Some("fresh"));
        assert!(d
            .edit_log()
            .unwrap()
            .since(g0)
            .iter()
            .any(|&(_, e)| e == Edit::RootReplaced));
    }
}
