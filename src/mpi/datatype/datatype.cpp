#include "mpi/datatype/datatype.hpp"

#include <algorithm>
#include <limits>

namespace scimpi::mpi {

TypeKind Datatype::kind() const {
    SCIMPI_REQUIRE(valid(), "kind() on invalid datatype");
    return node_->kind;
}

std::size_t Datatype::size() const {
    SCIMPI_REQUIRE(valid(), "size() on invalid datatype");
    return node_->size;
}

std::ptrdiff_t Datatype::extent() const {
    SCIMPI_REQUIRE(valid(), "extent() on invalid datatype");
    return node_->extent();
}

std::ptrdiff_t Datatype::lb() const {
    SCIMPI_REQUIRE(valid(), "lb() on invalid datatype");
    return node_->lb;
}

bool Datatype::is_contiguous() const {
    SCIMPI_REQUIRE(valid(), "is_contiguous() on invalid datatype");
    if (node_->kind == TypeKind::basic) return true;
    return node_->lb == 0 &&
           static_cast<std::size_t>(node_->extent()) == node_->size;
}

int Datatype::depth() const {
    SCIMPI_REQUIRE(valid(), "depth() on invalid datatype");
    return node_->depth;
}

std::int64_t Datatype::blocks_per_item() const {
    SCIMPI_REQUIRE(valid(), "blocks_per_item() on invalid datatype");
    return node_->blocks;
}

std::int64_t Datatype::traversal_steps_per_item() const {
    SCIMPI_REQUIRE(valid(), "traversal_steps_per_item() on invalid datatype");
    return node_->steps;
}

bool Datatype::committed() const { return valid() && node_->flat.has_value(); }

void Datatype::commit(const Config& cfg) {
    SCIMPI_REQUIRE(valid(), "commit() on invalid datatype");
    if (node_->flat.has_value()) return;
    FlatRep rep;
    rep.type_size = node_->size;
    rep.type_extent = node_->extent();
    std::vector<FFStackItem> stack;
    flatten_into(*node_, 0, stack, rep);
    SCIMPI_REQUIRE(stack.empty(), "flatten stack imbalance");
    if (cfg.ff_merge_stacks) {
        merge_flat(rep);
    } else {
        rep.max_depth = 0;
        for (const auto& leaf : rep.leaves)
            rep.max_depth =
                std::max(rep.max_depth, static_cast<int>(leaf.stack.size()));
    }
    node_->fingerprint = rep.structural_hash();
    node_->leaf_major = BlockMap(rep);
    node_->canonical = BlockMap(canonical_nests(*node_), node_->size, node_->extent());
    node_->flat = std::move(rep);
}

const FlatRep& Datatype::flat() const {
    SCIMPI_REQUIRE(committed(), "flat() requires a committed datatype");
    return *node_->flat;
}

const BlockMap& Datatype::leaf_major_map() const {
    SCIMPI_REQUIRE(committed(), "leaf_major_map() requires a committed datatype");
    return node_->leaf_major;
}

std::shared_ptr<const BlockMap> Datatype::canonical_map() const {
    SCIMPI_REQUIRE(valid(), "canonical_map() on invalid datatype");
    if (committed()) return {node_, &node_->canonical};  // shares the node's lifetime
    return std::make_shared<const BlockMap>(canonical_nests(*node_), node_->size,
                                            node_->extent());
}

std::uint64_t Datatype::fingerprint() const {
    SCIMPI_REQUIRE(committed(), "fingerprint() requires a committed datatype");
    return node_->fingerprint;
}

namespace {

/// Dense leaf replication (stride == block) is one longer block.
void merge_dense(LoopNest& n) {
    if (n.blocklen > 0 && n.count > 1 &&
        n.stride == static_cast<std::ptrdiff_t>(n.blocklen)) {
        n.blocklen *= static_cast<std::size_t>(n.count);
        n.count = 1;
        n.stride = 0;
    }
}

/// `count` replications, `stride` bytes apart at `disp`, of `body`: the
/// canonical-order building block. Merges what the byte map allows (count-1
/// levels, a level that tiles its only child, dense leaf replication), so
/// the result may be spliced into the caller's sequence.
std::vector<LoopNest> repeat_nest(std::ptrdiff_t disp, std::int64_t count,
                                  std::ptrdiff_t stride, std::vector<LoopNest> body) {
    if (count == 0 || body.empty()) return {};
    if (count == 1) {
        for (LoopNest& n : body) n.disp += disp;
        return body;
    }
    if (body.size() == 1) {
        LoopNest& only = body.front();
        // A single child replicated once, or laid out so that this level
        // continues its own stride, folds into one level.
        if (only.count == 1 || stride == only.count * only.stride) {
            if (only.count != 1) stride = only.stride;
            only.disp += disp;
            only.count *= count;
            only.stride = stride;
            merge_dense(only);
            return body;
        }
    }
    LoopNest n;
    n.disp = disp;
    n.count = count;
    n.stride = stride;
    n.body = std::move(body);
    return {std::move(n)};
}

/// Append `more` to the sequence `seq`, fusing single leaves that abut.
void append_nests(std::vector<LoopNest>& seq, std::vector<LoopNest> more) {
    for (LoopNest& n : more) {
        if (!seq.empty()) {
            LoopNest& prev = seq.back();
            if (prev.blocklen > 0 && n.blocklen > 0 && prev.count == 1 && n.count == 1 &&
                prev.disp + static_cast<std::ptrdiff_t>(prev.blocklen) == n.disp) {
                prev.blocklen += n.blocklen;
                continue;
            }
        }
        seq.push_back(std::move(n));
    }
}

}  // namespace

std::vector<LoopNest> Datatype::canonical_nests(const Node& n) {
    switch (n.kind) {
        case TypeKind::basic: {
            LoopNest leaf;
            leaf.blocklen = n.size;
            return {leaf};
        }
        case TypeKind::contiguous:
            return repeat_nest(0, n.count, n.children[0]->extent(),
                               canonical_nests(*n.children[0]));
        case TypeKind::vector:
        case TypeKind::hvector:
            return repeat_nest(0, n.count, n.stride_bytes,
                               repeat_nest(0, n.blocklen, n.children[0]->extent(),
                                           canonical_nests(*n.children[0])));
        case TypeKind::indexed:
        case TypeKind::hindexed:
        case TypeKind::strukt: {
            const bool one_child = n.kind != TypeKind::strukt;
            std::vector<LoopNest> child;
            if (one_child) child = canonical_nests(*n.children[0]);
            std::vector<LoopNest> seq;
            for (std::size_t i = 0; i < n.blocklens.size(); ++i) {
                const Node& c = *n.children[one_child ? 0 : i];
                append_nests(seq, repeat_nest(n.displs[i], n.blocklens[i], c.extent(),
                                              one_child ? child : canonical_nests(c)));
            }
            return seq;
        }
        case TypeKind::resized:
            return canonical_nests(*n.children[0]);
    }
    panic("canonical_nests: unknown type kind");
}

void Datatype::flatten_into(const Node& n, std::ptrdiff_t base,
                            std::vector<FFStackItem>& stack, FlatRep& out) {
    switch (n.kind) {
        case TypeKind::basic: {
            FlatLeaf leaf;
            leaf.blocklen = n.size;
            leaf.first_offset = base;
            leaf.stack = stack;
            if (leaf.blocklen > 0) out.leaves.push_back(std::move(leaf));
            return;
        }
        case TypeKind::contiguous: {
            if (n.count == 0) return;
            stack.push_back({n.count, n.children[0]->extent()});
            flatten_into(*n.children[0], base, stack, out);
            stack.pop_back();
            return;
        }
        case TypeKind::vector:
        case TypeKind::hvector: {
            if (n.count == 0 || n.blocklen == 0) return;
            stack.push_back({n.count, n.stride_bytes});
            stack.push_back({n.blocklen, n.children[0]->extent()});
            flatten_into(*n.children[0], base, stack, out);
            stack.pop_back();
            stack.pop_back();
            return;
        }
        case TypeKind::indexed:
        case TypeKind::hindexed: {
            for (std::size_t i = 0; i < n.blocklens.size(); ++i) {
                if (n.blocklens[i] == 0) continue;
                stack.push_back({n.blocklens[i], n.children[0]->extent()});
                flatten_into(*n.children[0], base + n.displs[i], stack, out);
                stack.pop_back();
            }
            return;
        }
        case TypeKind::strukt: {
            for (std::size_t i = 0; i < n.blocklens.size(); ++i) {
                if (n.blocklens[i] == 0) continue;
                stack.push_back({n.blocklens[i], n.children[i]->extent()});
                flatten_into(*n.children[i], base + n.displs[i], stack, out);
                stack.pop_back();
            }
            return;
        }
        case TypeKind::resized: {
            flatten_into(*n.children[0], base, stack, out);
            return;
        }
    }
    panic("flatten_into: unknown type kind");
}

void Datatype::describe_into(const Node& n, int indent, std::string& out) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    out += type_kind_name(n.kind);
    if (n.kind == TypeKind::basic) out += "(" + n.name + ")";
    out += " size=" + std::to_string(n.size) +
           " extent=" + std::to_string(n.extent());
    if (n.count > 0) out += " count=" + std::to_string(n.count);
    if (n.blocklen > 0) out += " blocklen=" + std::to_string(n.blocklen);
    if (n.stride_bytes != 0) out += " stride=" + std::to_string(n.stride_bytes);
    out += "\n";
    for (const auto& c : n.children) describe_into(*c, indent + 1, out);
}

std::string Datatype::describe() const {
    SCIMPI_REQUIRE(valid(), "describe() on invalid datatype");
    std::string out;
    describe_into(*node_, 0, out);
    return out;
}

}  // namespace scimpi::mpi
